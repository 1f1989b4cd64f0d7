package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/fgss"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Indexes of counters.V: the modelled work of one System, read through
// its exported accessors. Every entry is an exact count, so two commits
// that differ only in speed must produce identical values.
const (
	cCycles     = iota // CPU clock
	cInsts             // instructions retired, all cores
	cWindowFull        // core cycles issue stopped on a full window
	cLoadStalls        // core cycles issue stopped on refused loads

	cCacheAccesses // L1+L2+LLC accesses
	cLLCAccesses
	cLLCMisses
	cWriteBacks // dirty evictions at every level
	cMSHRFullStalls

	cMemReads
	cMemWrites
	cWriteDrain // controller bus cycles in write-drain mode
	cQueueFullStalls

	cDRAMCmds  // ACT+PRE+RD+WR+REF+RELOC
	cRowHits   // column accesses that hit an open row
	cRowAccess // row hits + misses + conflicts
	cRelocBusy

	cLookups    // in-DRAM cache lookups at the controllers
	cIndramHits // in-DRAM cache hits
	cInsertions // FIGCache segment insertions
	cEvictions

	nCounters
)

type counters struct {
	V       [nCounters]int64
	Retired []int64 // per core
}

// readCounters snapshots the System's cumulative counters.
func readCounters(s *sim.System) counters {
	var c counters
	v := &c.V
	v[cCycles] = s.Clock()
	for _, core := range s.Cores() {
		v[cInsts] += core.Retired
		v[cWindowFull] += core.WindowFull
		v[cLoadStalls] += core.LoadStalls
		c.Retired = append(c.Retired, core.Retired)
	}
	h := s.Hierarchy()
	for _, level := range [][]*cache.Cache{h.L1s, h.L2s, {h.LLC}} {
		for _, l := range level {
			v[cCacheAccesses] += l.Accesses()
			v[cWriteBacks] += l.WriteBacks
			v[cMSHRFullStalls] += l.MSHRFullStalls
		}
	}
	v[cLLCAccesses], v[cLLCMisses] = h.LLC.Accesses(), h.LLC.Misses
	for _, ctrl := range s.Controllers() {
		v[cMemReads] += ctrl.NumReads
		v[cMemWrites] += ctrl.NumWrites
		v[cWriteDrain] += ctrl.WritingCycles
		v[cQueueFullStalls] += ctrl.QueueFullStalls
		v[cLookups] += ctrl.CacheHits + ctrl.CacheMisses
		v[cIndramHits] += ctrl.CacheHits
		st := ctrl.Channel().CollectStats()
		v[cDRAMCmds] += st.ACT + st.PRE + st.RD + st.WR + st.REF + st.RELOC
		v[cRowHits] += st.RowHits
		v[cRowAccess] += st.RowHits + st.RowMisses + st.RowConf
		v[cRelocBusy] += st.RelocBusy
	}
	for _, hook := range s.Hooks() {
		if fc := sim.FIGCacheOf(hook); fc != nil {
			v[cInsertions] += fc.Insertions
			v[cEvictions] += fc.Evictions
		}
	}
	return c
}

// sub returns the work done between an earlier snapshot b of the same
// System and c.
func (c counters) sub(b counters) counters {
	var d counters
	for i := range d.V {
		d.V[i] = c.V[i] - b.V[i]
	}
	for i := range c.Retired {
		d.Retired = append(d.Retired, c.Retired[i]-b.Retired[i])
	}
	return d
}

// add accumulates another System's work into c; per-core counts belong to
// one System and are not summed.
func (c *counters) add(o counters) {
	for i := range c.V {
		c.V[i] += o.V[i]
	}
}

// digestOf hashes a value's canonical JSON encoding.
func digestOf(v any) [32]byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // counters and sim.Result always encode
	}
	return sha256.Sum256(b)
}

// recordTimer is a sim.TraceOpener that times every TraceReader.Next call
// of the readers it opens, from outside the workload package.
type recordTimer struct {
	mu      sync.Mutex
	readers []*timedReader
}

// open resolves a core's source exactly as System does by default and
// wraps the reader.
func (t *recordTimer) open(core int, src workload.Source, seed, base, span uint64, layout workload.Layout) (cpu.TraceReader, error) {
	inner, err := src.Open(seed, base, span, layout)
	if err != nil {
		return nil, err
	}
	cp, ok := inner.(checkpointable)
	if !ok {
		return nil, errNotCheckpointable
	}
	r := &timedReader{inner: cp}
	t.mu.Lock()
	t.readers = append(t.readers, r)
	t.mu.Unlock()
	return r, nil
}

// totals returns the records read and the nanoseconds spent reading them.
func (t *recordTimer) totals() (records, ns int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range t.readers {
		records += r.records
		ns += r.ns
	}
	return records, ns
}

var errNotCheckpointable = errors.New("trace reader cannot be checkpointed")

// checkpointable is the reader interface sim.System.Snapshot and Restore
// look for; the timing wrapper forwards it so a traced System restores
// the same checkpoint as an untraced one.
type checkpointable interface {
	cpu.TraceReader
	Snapshot(*fgss.Writer)
	Restore(*fgss.Reader)
}

type timedReader struct {
	inner checkpointable
	// records and ns measure the host, not the simulation, so checkpoints
	// leave them out.
	records int64 //fglint:preserved host-time measurement, not simulation state
	ns      int64 //fglint:preserved host-time measurement, not simulation state
}

func (r *timedReader) Next() cpu.TraceRecord {
	t0 := time.Now()
	rec := r.inner.Next()
	r.ns += int64(time.Since(t0))
	r.records++
	return rec
}

func (r *timedReader) Snapshot(w *fgss.Writer) { r.inner.Snapshot(w) }
func (r *timedReader) Restore(rd *fgss.Reader) { r.inner.Restore(rd) }
