package harness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Ablations evaluates the simulator's own design choices, beyond the
// paper's own sensitivity studies:
//
//   - deferred versus immediate relocation execution: the controller
//     delays insertion RELOC bursts to row-close time so queued row hits
//     are preserved (Section 8.1's latency argument); the ablation runs
//     the naive execute-at-miss policy for comparison;
//   - the relocation substrate: FIGARO (bank-local, distance-independent)
//     versus RowClone-PSM (Section 10's related-work mechanism, which
//     copies over the shared global data bus and blocks all banks in the
//     channel for the duration).
func (r *Runner) Ablations() (*stats.Table, error) {
	singles := r.singleWorkloads()
	eights := r.eightCoreMixes()
	mixes := append(append([]workload.Mix{}, singles...), eights...)

	type variant struct {
		name   string
		mutate func(*sim.Config)
	}
	variants := []variant{
		{"deferred (default)", func(c *sim.Config) {}},
		{"immediate reloc", func(c *sim.Config) { c.ImmediateReloc = true }},
		{"RowClone-PSM", func(c *sim.Config) {
			fig := core.DefaultFIGCacheConfig()
			fig.Substrate = core.SubstrateRowClonePSM
			c.FIG = &fig
		}},
	}

	// variantConfig deterministically rebuilds each ablation's config, so
	// the same call serves as job builder and result lookup (mutations are
	// fingerprinted by value).
	variantConfig := func(v variant, mix workload.Mix) sim.Config {
		cfg := r.baseConfig(sim.FIGCacheFast, mix)
		v.mutate(&cfg)
		return cfg
	}
	var jobs []sim.Config
	for _, mix := range mixes {
		jobs = append(jobs, r.baseConfig(sim.Base, mix))
		for _, v := range variants {
			jobs = append(jobs, variantConfig(v, mix))
		}
	}
	res, err := r.runAll(jobs)
	if err != nil {
		return nil, err
	}

	names := make([]string, len(variants))
	for i, v := range variants {
		names[i] = v.name
	}
	t := &stats.Table{
		Title:  "Ablation: relocation execution policy (FIGCache-Fast weighted speedup over Base)",
		Header: append([]string{"workload group"}, names...),
	}
	group := func(name string, ms []workload.Mix) {
		row := []string{name}
		for _, v := range variants {
			var vals []float64
			for _, m := range ms {
				base := res.of(r.baseConfig(sim.Base, m))
				run := res.of(variantConfig(v, m))
				vals = append(vals, run.WeightedSpeedupOver(base))
			}
			row = append(row, stats.F(stats.Mean(vals), 3))
		}
		t.AddRow(row...)
	}
	var nonInt, intens []workload.Mix
	for _, m := range singles {
		if m.Apps[0].MemIntensive() {
			intens = append(intens, m)
		} else {
			nonInt = append(nonInt, m)
		}
	}
	group("1-core non-intensive", nonInt)
	group("1-core intensive", intens)
	for _, pct := range []int{25, 50, 75, 100} {
		group(fmt.Sprintf("8-core %d%%", pct), workload.MixesByCategory(eights, pct))
	}
	t.AddNote("deferring relocation to row close preserves queued row hits (Section 8.1); immediate execution steals them")
	return t, nil
}
