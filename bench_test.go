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

// BenchmarkGangRow pits gang execution against serial execution of one
// figure row: a single Table-2 application simulated under all six
// presets. The serial arm mirrors the harness solo path (one System
// Reset-reused across the row, so workload generation runs six times);
// the gang arm runs the row as one sim.Gang over a shared instruction
// stream (generation runs once, teed to all members). Both arms reuse
// their Systems across b.N iterations, so the comparison is steady
// state and the ratio isolates the amortized generation work against
// the gang's interleaving overhead. Generation is a few percent of a
// run after the engine optimizations of earlier PRs, so expect the
// arms within noise of each other — the profile satellites in the
// README show where the remaining 96% goes.
func BenchmarkGangRow(b *testing.B) {
	spec, err := workload.ByName("mcf")
	if err != nil {
		b.Fatal(err)
	}
	mix := workload.Mix{Name: spec.Name, Apps: workload.Sources(spec)}
	var row []sim.Config
	for _, p := range sim.Presets() {
		cfg := sim.DefaultConfig(p, mix)
		cfg.TargetInsts = 100_000
		row = append(row, cfg)
	}

	b.Run("serial", func(b *testing.B) {
		system, err := sim.New(row[0])
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		var cycles int64
		for i := 0; i < b.N; i++ {
			for _, cfg := range row {
				if err := system.Reset(cfg); err != nil {
					b.Fatal(err)
				}
				res, err := system.Run()
				if err != nil {
					b.Fatal(err)
				}
				cycles += res.Cycles
			}
		}
		b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "sim-cycles/s")
	})

	b.Run("gang", func(b *testing.B) {
		warm, err := sim.NewGang(row, nil)
		if err != nil {
			b.Fatal(err)
		}
		reuse := warm.Members()
		b.ResetTimer()
		var cycles int64
		for i := 0; i < b.N; i++ {
			gang, err := sim.NewGang(row, reuse)
			if err != nil {
				b.Fatal(err)
			}
			results, errs := gang.Run()
			for _, e := range errs {
				if e != nil {
					b.Fatal(e)
				}
			}
			for _, res := range results {
				cycles += res.Cycles
			}
			reuse = gang.Members()
		}
		b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "sim-cycles/s")
	})
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
