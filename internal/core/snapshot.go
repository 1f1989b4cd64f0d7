package core

import (
	"sort"

	"repro/internal/fgss"
)

// sortedKeys returns a map's keys in ascending order, so snapshot
// output is byte-identical across runs regardless of map iteration
// order.
func sortedKeys[K ~uint64, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	//fglint:deterministic keys are sorted before use
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// Snapshot appends the tag store's mutable state: every entry (an
// in-flight insertion is a reserved entry), the logical clock, and the
// hit/miss counters. The index and row benefit sums are derived and
// rebuilt on restore.
func (f *FTS) Snapshot(w *fgss.Writer) {
	w.Int(len(f.entries))
	for i := range f.entries {
		e := &f.entries[i]
		w.U64(uint64(e.key))
		w.Bool(e.valid)
		w.Bool(e.reserved)
		w.Bool(e.dirty)
		w.U64(uint64(e.benefit))
		w.I64(e.lastUse)
	}
	w.I64(f.clock)
	w.I64(f.Hits)
	w.I64(f.Misses)
}

// Restore reads back what Snapshot wrote and rebuilds the tag index
// and the row benefit sums. The receiver must have the snapshotted slot
// count (a mismatch stops decoding).
func (f *FTS) Restore(r *fgss.Reader) {
	n := r.Int()
	if n != len(f.entries) {
		return
	}
	clear(f.index)
	clear(f.rowSums)
	for i := 0; i < n && r.Err() == nil; i++ {
		e := &f.entries[i]
		e.key = segKey(r.U64())
		e.valid = r.Bool()
		e.reserved = r.Bool()
		e.dirty = r.Bool()
		e.benefit = uint8(r.U64())
		e.lastUse = r.I64()
		if e.valid || e.reserved {
			f.index[e.key] = i
		}
		if e.valid {
			f.rowSums[f.RowOfSlot(i)] += int(e.benefit)
		}
	}
	f.clock = r.I64()
	f.Hits = r.I64()
	f.Misses = r.I64()
}

// snapshot appends the replacement policy's mutable state: the
// draining-row register, its eviction bitvector, and the PRNG.
func (r *replacer) snapshot(w *fgss.Writer) {
	w.Int(r.evictRow)
	w.U64(r.evictMask)
	w.Bool(r.draining)
	w.U64(uint64(r.rng))
}

func (r *replacer) restore(rd *fgss.Reader) {
	r.evictRow = rd.Int()
	r.evictMask = rd.U64()
	r.draining = rd.Bool()
	r.rng = splitmix64(rd.U64())
}

// Snapshot appends the cache's full mutable state, bank by bank: tag
// store (in-flight insertions included), replacement state, threshold
// miss counters and their decay epoch, then the aggregate counters. The
// miss counters are emitted in sorted-key order for deterministic output.
func (c *FIGCache) Snapshot(w *fgss.Writer) {
	w.Int(len(c.banks))
	for _, b := range c.banks {
		b.fts.Snapshot(w)
		b.repl.snapshot(w)
		w.Int(len(b.missCounts))
		for _, k := range sortedKeys(b.missCounts) {
			w.U64(uint64(k))
			w.Int(b.missCounts[k])
		}
		w.Int(b.decayEpoch)
	}
	w.I64(c.Insertions)
	w.I64(c.Evictions)
	w.I64(c.WriteBacks)
	w.I64(c.ThrottledBy)
}

// Restore reads back what Snapshot wrote. The receiver must be built
// from the same configuration (bank count mismatch stops decoding).
func (c *FIGCache) Restore(r *fgss.Reader) {
	if r.Int() != len(c.banks) {
		return
	}
	for _, b := range c.banks {
		b.fts.Restore(r)
		b.repl.restore(r)
		clear(b.missCounts)
		n := r.Int()
		for i := 0; i < n && r.Err() == nil; i++ {
			k := segKey(r.U64())
			b.missCounts[k] = r.Int()
		}
		b.decayEpoch = r.Int()
	}
	c.Insertions = r.I64()
	c.Evictions = r.I64()
	c.WriteBacks = r.I64()
	c.ThrottledBy = r.I64()
}
