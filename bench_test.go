// Package repro_bench provides one testing.B benchmark per table and
// figure of the paper's evaluation. Each benchmark regenerates its
// artifact through the same harness cmd/figbench uses, at a reduced scale
// so `go test -bench=.` completes in minutes; custom metrics report the
// headline numbers (speedups, hit rates) next to wall-clock time. Run
// cmd/figbench for full-scale reproductions.
package repro_bench

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// benchScale is the reduced experiment scale used by all benchmarks.
func benchScale() harness.Scale {
	return harness.Scale{
		Insts:            60_000,
		SingleApps:       4,
		MixesPerCategory: 1,
		MCIterations:     2_000,
	}
}

// runTable executes one harness experiment per b.N iteration and reports
// the simulator's cycle throughput next to wall-clock time.
func runTable(b *testing.B, f func(*harness.Runner) (*stats.Table, error)) *stats.Table {
	b.Helper()
	var tab *stats.Table
	var simCycles int64
	var simWall float64
	for i := 0; i < b.N; i++ {
		r := harness.NewRunner(benchScale())
		var err error
		tab, err = f(r)
		if err != nil {
			b.Fatal(err)
		}
		simCycles += r.SimCycles()
		simWall += r.SimWallSeconds()
	}
	if simWall > 0 && simCycles > 0 {
		b.ReportMetric(float64(simCycles)/simWall, "sim-cycles/s")
	}
	return tab
}

// lastCellMean averages the numeric value of column col over all rows
// whose first cell contains match.
func lastCellMean(tab *stats.Table, match string, col int) float64 {
	var vals []float64
	for _, row := range tab.Rows {
		if !strings.Contains(row[0], match) || col >= len(row) {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(row[col], "%"), 64)
		if err == nil {
			vals = append(vals, v)
		}
	}
	return stats.Mean(vals)
}

func BenchmarkTable1Config(b *testing.B) {
	runTable(b, func(r *harness.Runner) (*stats.Table, error) { return r.Table1(), nil })
}

func BenchmarkTable2Benchmarks(b *testing.B) {
	tab := runTable(b, (*harness.Runner).Table2)
	b.ReportMetric(lastCellMean(tab, "mcf", 2), "mcf-mpki")
}

func BenchmarkFig5Reloc(b *testing.B) {
	runTable(b, (*harness.Runner).Fig5)
}

func BenchmarkFig7SingleCore(b *testing.B) {
	tab := runTable(b, (*harness.Runner).Fig7)
	// Column 4 is FIGCache-Fast (app, class, LISA, Slow, Fast, Ideal, LL).
	b.ReportMetric(lastCellMean(tab, "geomean", 4), "figcache-fast-speedup")
}

func BenchmarkFig8EightCore(b *testing.B) {
	tab := runTable(b, (*harness.Runner).Fig8)
	b.ReportMetric(lastCellMean(tab, "all 20 mixes", 3), "figcache-fast-ws")
}

func BenchmarkFig9CacheHitRate(b *testing.B) {
	tab := runTable(b, (*harness.Runner).Fig9)
	b.ReportMetric(lastCellMean(tab, "8-core 100%", 3), "fast-hitrate-pct")
}

func BenchmarkFig10RowHitRate(b *testing.B) {
	tab := runTable(b, (*harness.Runner).Fig10)
	b.ReportMetric(lastCellMean(tab, "8-core 100%", 3), "fast-rowhit-pct")
}

func BenchmarkFig11Energy(b *testing.B) {
	tab := runTable(b, (*harness.Runner).Fig11)
	_ = tab
}

func BenchmarkFig12Capacity(b *testing.B) {
	runTable(b, (*harness.Runner).Fig12)
}

func BenchmarkFig13SegmentSize(b *testing.B) {
	runTable(b, (*harness.Runner).Fig13)
}

func BenchmarkFig14Replacement(b *testing.B) {
	runTable(b, (*harness.Runner).Fig14)
}

func BenchmarkFig15Insertion(b *testing.B) {
	runTable(b, (*harness.Runner).Fig15)
}

func BenchmarkSec42Analysis(b *testing.B) {
	runTable(b, func(r *harness.Runner) (*stats.Table, error) { return r.Sec42(), nil })
}

func BenchmarkSec83Overhead(b *testing.B) {
	runTable(b, (*harness.Runner).Sec83)
}

func BenchmarkMultithreaded(b *testing.B) {
	runTable(b, (*harness.Runner).Multithreaded)
}

// BenchmarkAblationRelocPolicy compares deferred versus immediate
// relocation execution, the main controller design choice beyond the
// paper's own sensitivity studies.
func BenchmarkAblationRelocPolicy(b *testing.B) {
	runTable(b, (*harness.Runner).Ablations)
}

// BenchmarkSimulatorThroughput measures raw simulation speed: simulated
// instructions per wall-clock second on the Base configuration.
func BenchmarkSimulatorThroughput(b *testing.B) {
	spec, err := workload.ByName("mcf")
	if err != nil {
		b.Fatal(err)
	}
	mix := workload.Mix{Name: "mcf", Apps: workload.Sources(spec)}
	b.ResetTimer()
	var insts, cycles int64
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig(sim.Base, mix)
		cfg.TargetInsts = 50_000
		system, err := sim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := system.Run()
		if err != nil {
			b.Fatal(err)
		}
		insts += res.TotalInsts
		cycles += res.Cycles
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "sim-insts/s")
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "sim-cycles/s")
}

// BenchmarkSimulatorThroughputMulticore measures raw simulation speed on
// the eight-core path: simulated instructions per wall-clock second for
// FIGCache-Fast on the first 100%-intensive mix. The System is warmed up
// once, untimed, past the cold-cache transient; each iteration then
// times a fixed window of retired instructions (all cores) with
// RunUntilRetired, the checkpointed multi-core window's stop rule.
func BenchmarkSimulatorThroughputMulticore(b *testing.B) {
	const warm, window = 4_000_000, 2_000_000
	mix := workload.MixesByCategory(workload.EightCoreMixes(), 100)[0]
	cfg := sim.DefaultConfig(sim.FIGCacheFast, mix)
	cfg.TargetInsts = 1 << 40 // the stop rule ends every window
	system, err := sim.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	system.RunUntilRetired(warm)
	retired := func() int64 {
		var n int64
		for _, c := range system.Cores() {
			n += c.Retired
		}
		return n
	}
	b.ResetTimer()
	var insts int64
	for i := 0; i < b.N; i++ {
		before := retired()
		system.RunUntilRetired(before + window)
		insts += retired() - before
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "sim-insts/s")
}

// BenchmarkEngineComparison pits the cycle-skipping engine against the
// dense reference loop on the same memory-intensive Base run, so the
// speedup is visible directly in the benchmark output.
func BenchmarkEngineComparison(b *testing.B) {
	spec, err := workload.ByName("mcf")
	if err != nil {
		b.Fatal(err)
	}
	mix := workload.Mix{Name: "mcf", Apps: workload.Sources(spec)}
	for _, eng := range []struct {
		name  string
		dense bool
	}{{"skipping", false}, {"dense", true}} {
		b.Run(eng.name, func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				cfg := sim.DefaultConfig(sim.Base, mix)
				cfg.TargetInsts = 50_000
				cfg.DenseLoop = eng.dense
				system, err := sim.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				res, err := system.Run()
				if err != nil {
					b.Fatal(err)
				}
				cycles += res.Cycles
			}
			b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "sim-cycles/s")
		})
	}
}
