package sim

import (
	"repro/internal/dram"
)

// CoreResult holds per-core outcomes of a run.
type CoreResult struct {
	App        string
	IPC        float64
	Insts      int64
	FinishedAt int64
}

// Result aggregates everything the evaluation needs from one run.
type Result struct {
	Preset   Preset
	Workload string
	Cycles   int64 // CPU cycles until the last core hit its target

	Cores []CoreResult

	// DRAM-level statistics summed across channels.
	DRAM dram.Stats

	// In-DRAM cache statistics.
	CacheHits   int64
	CacheMisses int64
	Inserted    int64

	// SRAM hierarchy statistics.
	L1Accesses, L2Accesses, LLCAccesses int64
	LLCMisses                           int64

	// Memory controller statistics.
	MemReads, MemWrites int64
	AvgReadLatencyNS    float64

	// Total retired instructions (all cores).
	TotalInsts int64
}

// collect gathers statistics after a run.
func (s *System) collect() Result {
	r := Result{
		Preset:   s.cfg.Preset,
		Workload: s.cfg.Mix.Name,
		Cycles:   s.clock,
	}
	for i, c := range s.cores {
		r.Cores = append(r.Cores, CoreResult{
			App:        s.cfg.Mix.Apps[i].Name(),
			IPC:        c.IPC(s.clock),
			Insts:      c.Retired,
			FinishedAt: c.FinishedAt,
		})
		r.TotalInsts += c.Retired
	}
	var latSum float64
	var latN int64
	for _, ctrl := range s.ctrls {
		r.CacheHits += ctrl.CacheHits
		r.CacheMisses += ctrl.CacheMisses
		r.Inserted += ctrl.Inserted
		r.MemReads += ctrl.NumReads
		r.MemWrites += ctrl.NumWrites
		latSum += ctrl.AvgReadLatencyNS() * float64(ctrl.NumReads)
		latN += ctrl.NumReads
	}
	if latN > 0 {
		r.AvgReadLatencyNS = latSum / float64(latN)
	}
	for _, ch := range s.channels {
		st := ch.CollectStats()
		r.DRAM.ACT += st.ACT
		r.DRAM.ACTFast += st.ACTFast
		r.DRAM.PRE += st.PRE
		r.DRAM.RD += st.RD
		r.DRAM.WR += st.WR
		r.DRAM.REF += st.REF
		r.DRAM.RELOC += st.RELOC
		r.DRAM.RBMHops += st.RBMHops
		r.DRAM.RowHits += st.RowHits
		r.DRAM.RowMisses += st.RowMisses
		r.DRAM.RowConf += st.RowConf
		r.DRAM.RelocBusy += st.RelocBusy
	}
	for _, l1 := range s.hier.L1s {
		r.L1Accesses += l1.Accesses()
	}
	for _, l2 := range s.hier.L2s {
		r.L2Accesses += l2.Accesses()
	}
	r.LLCAccesses = s.hier.LLC.Accesses()
	r.LLCMisses = s.hier.LLC.Misses
	return r
}

// IPCSum returns the sum of per-core IPCs (system throughput).
func (r Result) IPCSum() float64 {
	sum := 0.0
	for _, c := range r.Cores {
		sum += c.IPC
	}
	return sum
}

// WeightedSpeedupOver computes the weighted speedup of this run relative
// to a baseline run of the same mix: sum_i IPC_i / IPC_base_i, divided by
// the core count so that "no change" is 1.0. The paper reports weighted
// speedup improvements over Base (Section 7). Textbook weighted speedup
// divides each core's IPC by that application's IPC running alone; here
// the same core's IPC in the Base run of the same mix stands in for it.
// That keeps the metric a function of two runs of one mix, with no
// per-application alone runs in the matrix, and makes each term a
// per-core speedup against Base under identical co-runners. The ratio
// differs from the textbook improvement only in how cores are weighted:
// equally here, by their Base slowdown there.
func (r Result) WeightedSpeedupOver(base Result) float64 {
	if len(r.Cores) != len(base.Cores) || len(r.Cores) == 0 {
		return 0
	}
	sum := 0.0
	for i := range r.Cores {
		if base.Cores[i].IPC > 0 {
			sum += r.Cores[i].IPC / base.Cores[i].IPC
		}
	}
	return sum / float64(len(r.Cores))
}

// RowBufferHitRate returns the fraction of DRAM column accesses that hit
// an open row (Figure 10's metric).
func (r Result) RowBufferHitRate() float64 { return r.DRAM.RowBufferHitRate() }

// InDRAMCacheHitRate returns the in-DRAM cache hit rate (Figure 9).
func (r Result) InDRAMCacheHitRate() float64 {
	total := r.CacheHits + r.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(r.CacheHits) / float64(total)
}

// LLCMPKI returns LLC misses per kilo-instruction.
func (r Result) LLCMPKI() float64 {
	if r.TotalInsts == 0 {
		return 0
	}
	return float64(r.LLCMisses) / float64(r.TotalInsts) * 1000
}
