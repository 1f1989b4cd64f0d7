package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/expcache"
	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// params sizes the workloads. defaultParams is the benchmark; the tests
// run the same code on a tiny copy.
type params struct {
	fig7Insts   int64 // per-run retire target of fig7-cold
	lightWarm   int64 // warm-up instructions per light-1c-base app
	lightWindow int64 // timed instructions per light-1c-base app
	mixWarm     int64 // warm-up instructions per mix8-warm mix, all cores
	mixWindow   int64 // timed instructions per mix8-warm mix, all cores
	warmEpochs  int   // epochs of the recorded warm-up series
	setups      int   // set-up repetitions; setup_s is their median
}

// minPasses timed passes run even past the time budget, so every run
// compares at least two passes' results.
const minPasses = 3

// defaultParams: fig7-cold is figbench's default Figure 7. The warm-up
// lengths put every checkpoint past the LLC fill (2 MiB = 32768 lines per
// core) on the default and held-out seeds, which the warm-up series in
// the traced output shows; the windows give a timed pass of roughly a
// third of a second (light-1c-base) and one second (mix8-warm).
func defaultParams() params {
	return params{
		fig7Insts:   harness.DefaultScale().Insts,
		lightWarm:   24_000_000,
		lightWindow: 2_000_000,
		mixWarm:     56_000_000,
		mixWindow:   4_000_000,
		warmEpochs:  14,
		setups:      3,
	}
}

// passStats is the outcome of one pass: a workload's fixed unit of timed
// work.
type passStats struct {
	timed     time.Duration // host time inside the timed calls only
	insts     int64         // simulated instructions they retired
	attempted int           // simulations
	failed    int
	digest    [32]byte // over the pass's canonical results, in order

	// fig7-cold only.
	systemsBuilt, systemsReused, gangs int64
	cache                              expcache.Stats
	fastSpeedup                        float64 // FIGCache-Fast intensive geomean
}

// passWork is the modelled work of one pass, for the per-layer metrics.
type passWork struct {
	counters
	latP50NS, latP99NS float64
}

// bench is one workload.
type bench interface {
	// setup builds the workload's state for a seed; the last call wins.
	setup(seed uint64) error
	// pass runs the fixed timed work once. A non-nil timer selects the
	// traced variant, whose trace readers it times where the workload
	// builds its own Systems.
	pass(timer *recordTimer) passStats
	// work returns the modelled work of one pass. Trace readers opened
	// for it are timed by timer.
	work(timer *recordTimer) (passWork, error)
	// report prints the set-up diagnostics.
	report(printf func(string, ...any))
}

var benchNames = []string{"fig7-cold", "light-1c-base", "mix8-warm"}

func newBench(name string, p params, workers int) (bench, error) {
	switch name {
	case "fig7-cold":
		return &fig7Bench{p: p, workers: workers}, nil
	case "light-1c-base":
		var mixes []workload.Mix
		for _, m := range workload.SingleCoreWorkloads() {
			if !m.Apps[0].MemIntensive() {
				mixes = append(mixes, m)
			}
		}
		return &windowBench{p: p, workers: workers, preset: sim.Base, mixes: mixes,
			warm: p.lightWarm, window: p.lightWindow}, nil
	case "mix8-warm":
		var mixes []workload.Mix
		for _, pct := range []int{25, 50, 75, 100} {
			mixes = append(mixes, workload.MixesByCategory(workload.EightCoreMixes(), pct)[0])
		}
		// Eight-core mixes get 4 channels by default.
		return &windowBench{p: p, workers: workers, preset: sim.FIGCacheFast, mixes: mixes,
			warm: p.mixWarm, window: p.mixWindow}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, benchNames)
}

// forEach runs f(0..n-1) on at most workers goroutines and returns their
// errors joined.
func forEach(n, workers int, f func(i int) error) error {
	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return errors.Join(errs...)
}

// ---- fig7-cold ----

// fig7Bench runs harness.Runner.Fig7 on a fresh Runner per pass, so no
// pass hits an earlier pass's in-memory result cache. The harness seeds
// every run with Seed=1, so the workload ignores the seed argument.
type fig7Bench struct {
	p       params
	workers int
	want    string // rendered table of the first pass
	// simCycles is the first pass's Runner.SimCycles, which the direct
	// runs of work must reproduce.
	simCycles int64
}

func (f *fig7Bench) runner() *harness.Runner {
	scale := harness.DefaultScale()
	scale.Insts, scale.Parallelism = f.p.fig7Insts, f.workers
	return harness.NewRunner(scale)
}

// setup is one host warm-up pass, as a fresh figbench process pays.
func (f *fig7Bench) setup(uint64) error {
	_, err := f.runner().Fig7()
	return err
}

func (f *fig7Bench) pass(timer *recordTimer) passStats {
	r := f.runner()
	runs := len(workload.SingleCoreWorkloads()) * len(sim.Presets())
	var tab *stats.Table
	var err error
	dt := timedCall(timer != nil, func() { tab, err = r.Fig7() })
	ps := passStats{timed: dt, attempted: runs,
		insts:        int64(runs) * f.p.fig7Insts,
		systemsBuilt: r.SystemsBuilt(), systemsReused: r.SystemsReused(), gangs: r.GangsFormed(),
		cache: r.CacheStats()}
	if err == nil {
		ps.fastSpeedup, err = fig7FastIntensive(tab)
	}
	var text string
	if err == nil {
		text = tab.Render()
		if f.want == "" {
			f.want, f.simCycles = text, r.SimCycles()
		}
	}
	// A cold pass computes every run; a hit would mean a shared cache.
	if err != nil || text != f.want || ps.cache.Misses != int64(runs) {
		ps.failed = runs
	}
	ps.digest = digestOf(text)
	return ps
}

// fig7FastIntensive reads the FIGCache-Fast geomean of the intensive apps
// from the Figure 7 table.
func fig7FastIntensive(tab *stats.Table) (float64, error) {
	col := -1
	for i, h := range tab.Header {
		if h == sim.FIGCacheFast.String() {
			col = i
		}
	}
	for _, row := range tab.Rows {
		if col >= 0 && len(row) > col && row[0] == "geomean" && row[1] == "intensive" {
			return strconv.ParseFloat(row[col], 64)
		}
	}
	return 0, errors.New("fig7: no FIGCache-Fast intensive geomean")
}

// work re-runs Figure 7's matrix directly, each run configured as the
// harness configures it, for the counters a Runner does not export.
func (f *fig7Bench) work(timer *recordTimer) (passWork, error) {
	mixes := workload.SingleCoreWorkloads()
	presets := sim.Presets()
	n := len(mixes) * len(presets)
	works := make([]counters, n)
	lats := make([][]int64, n)
	lens := make([]int64, n)
	err := forEach(n, f.workers, func(i int) error {
		cfg := sim.DefaultConfig(presets[i%len(presets)], mixes[i/len(presets)])
		cfg.TargetInsts = f.p.fig7Insts
		sys, err := sim.NewWithOpener(cfg, timer.open)
		if err != nil {
			return err
		}
		if _, err := sys.Run(); err != nil {
			return err
		}
		works[i] = readCounters(sys)
		lats[i], lens[i] = latencySamples(sys)
		return nil
	})
	var w passWork
	for _, c := range works {
		w.add(c)
	}
	w.latP50NS, w.latP99NS = latencyPercentiles(lats, lens)
	if err == nil && w.V[cCycles] != f.simCycles {
		err = fmt.Errorf("fig7: direct runs simulated %d cycles, the harness %d", w.V[cCycles], f.simCycles)
	}
	return w, err
}

func (f *fig7Bench) report(printf func(string, ...any)) {
	printf("fig7-cold: harness runs every simulation with Seed=1; the --seed argument does not apply")
}

// ---- light-1c-base and mix8-warm ----

// windowBench warms each mix once in set-up, snapshots it, and then times
// Restore followed by a fixed window of simulation per mix.
type windowBench struct {
	p       params
	workers int
	preset  sim.Preset
	mixes   []workload.Mix // all of one core count
	warm    int64          // warm-up instructions per mix, all cores
	window  int64          // timed instructions per mix, all cores

	cps []*checkpoint
}

// multiCore selects how a window ends and when a checkpoint is warm. One
// core runs System.Run to the per-core target warm+window. Run fixes the
// window only for one core: with several it ends when the slowest core
// reaches the target, so multi-core windows end with
// RunUntilRetired(total at checkpoint + window) instead, and their
// checkpoints must also have DRAM write-backs under way to count as warm.
func (w *windowBench) multiCore() bool { return len(w.mixes[0].Apps) > 1 }

// checkpoint is one warmed mix.
type checkpoint struct {
	name   string
	sys    *sim.System
	traced *sim.System // built on the first traced pass
	snap   []byte
	at     counters // at the snapshot
	target int64    // total retired that ends a RunUntilRetired window
	series []epoch
	want   [32]byte // digest of the first pass's window
	last   passWork // the last pass's window
}

// epoch is one step of the recorded warm-up series.
type epoch struct {
	insts                                      int64 // retired at its end, all cores
	llcMisses                                  int64 // cumulative
	writes                                     int64 // DRAM writes in the epoch
	llcMissRate, dramWriteShare, indramHitRate float64
}

func (w *windowBench) config(mix workload.Mix, seed uint64) sim.Config {
	cfg := sim.DefaultConfig(w.preset, mix)
	cfg.Seed = seed
	cfg.TargetInsts = w.warm + w.window
	if w.multiCore() {
		// RunUntilRetired ends the window; keep every core short of its
		// target so no core's finish time enters the digest.
		cfg.TargetInsts = 1 << 40
	}
	return cfg
}

func (w *windowBench) setup(seed uint64) error {
	cps := make([]*checkpoint, len(w.mixes))
	err := forEach(len(w.mixes), w.workers, func(i int) error {
		cp, err := w.warmUp(w.config(w.mixes[i], seed))
		cps[i] = cp
		return err
	})
	w.cps = cps
	return err
}

// warmUp builds the System, runs the warm-up in epochs while recording
// the series, and snapshots it.
func (w *windowBench) warmUp(cfg sim.Config) (*checkpoint, error) {
	sys, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	cp := &checkpoint{name: cfg.Mix.Name, sys: sys}
	prev := readCounters(sys)
	for e := 1; e <= w.p.warmEpochs; e++ {
		sys.RunUntilRetired(w.warm * int64(e) / int64(w.p.warmEpochs))
		now := readCounters(sys)
		d := now.sub(prev).V
		cp.series = append(cp.series, epoch{
			insts: now.V[cInsts], llcMisses: now.V[cLLCMisses], writes: d[cMemWrites],
			llcMissRate:    ratio(d[cLLCMisses], d[cLLCAccesses]),
			dramWriteShare: ratio(d[cMemWrites], d[cMemReads]+d[cMemWrites]),
			indramHitRate:  ratio(d[cIndramHits], d[cLookups]),
		})
		prev = now
	}
	if prev.V[cInsts] < w.warm {
		return nil, fmt.Errorf("%s: warm-up hit MaxCycles at %d of %d instructions", cp.name, prev.V[cInsts], w.warm)
	}
	var buf bytes.Buffer
	if err := sys.Snapshot(&buf); err != nil {
		return nil, fmt.Errorf("%s: snapshot: %w", cp.name, err)
	}
	cp.snap, cp.at = buf.Bytes(), prev
	cp.target = prev.V[cInsts] + w.window
	return cp, nil
}

// warmVerdict says whether a checkpoint sits after the LLC-fill
// transient: the LLC has missed at least once per line, and, where
// required, DRAM write-backs have started.
func (w *windowBench) warmVerdict(cp *checkpoint) string {
	llc := cache.DefaultHierarchyConfig(len(cp.at.Retired)).LLC
	lines := int64(llc.SizeBytes / llc.BlockBytes)
	fill, writes := -1, -1
	for i, e := range cp.series {
		if fill < 0 && e.llcMisses >= lines {
			fill = i + 1
		}
		if writes < 0 && e.writes > 0 {
			writes = i + 1
		}
	}
	switch {
	case fill < 0:
		return fmt.Sprintf("starts cold: %d LLC misses before the checkpoint, fewer than its %d lines", cp.at.V[cLLCMisses], lines)
	case w.multiCore() && writes < 0:
		return "starts cold: no DRAM write-back before the checkpoint"
	case writes < 0:
		return fmt.Sprintf("warm: LLC filled by epoch %d; no DRAM write-back yet", fill)
	}
	return fmt.Sprintf("warm: LLC filled by epoch %d, DRAM write-backs from epoch %d", fill, writes)
}

func (w *windowBench) report(printf func(string, ...any)) {
	for _, cp := range w.cps {
		for i, e := range cp.series {
			printf("warmup %s epoch=%d insts=%d llc_miss_rate=%.4f dram_write_share=%.4f indram_hit_rate=%.4f",
				cp.name, i+1, e.insts, e.llcMissRate, e.dramWriteShare, e.indramHitRate)
		}
		printf("warmup %s checkpoint at %d instructions: %s", cp.name, cp.at.V[cInsts], w.warmVerdict(cp))
	}
}

func (w *windowBench) pass(timer *recordTimer) passStats {
	var ps passStats
	h := sha256.New()
	for _, cp := range w.cps {
		sys := cp.sys
		if timer != nil {
			if cp.traced == nil {
				var err error
				if cp.traced, err = sim.NewWithOpener(sys.Config(), timer.open); err != nil {
					ps.attempted++
					ps.failed++
					continue
				}
			}
			sys = cp.traced
		}
		dt, digest, work, err := w.simulate(cp, sys, timer != nil)
		ps.timed += dt
		ps.insts += work.V[cInsts]
		ps.attempted++
		if cp.want == ([32]byte{}) && err == nil {
			cp.want = digest
		}
		if err != nil || digest != cp.want {
			ps.failed++
		}
		h.Write(digest[:])
		cp.last = work
	}
	copy(ps.digest[:], h.Sum(nil))
	return ps
}

// simulate restores the checkpoint into sys and times its window.
func (w *windowBench) simulate(cp *checkpoint, sys *sim.System, traced bool) (time.Duration, [32]byte, passWork, error) {
	var work passWork
	if err := sys.Restore(bytes.NewReader(cp.snap)); err != nil {
		return 0, [32]byte{}, work, fmt.Errorf("%s: restore: %w", cp.name, err)
	}
	// Collect Restore's garbage now, so that no collection it triggers
	// runs during the timed window.
	runtime.GC()
	var res sim.Result
	var err error
	dt := timedCall(traced, func() {
		if w.multiCore() {
			sys.RunUntilRetired(cp.target)
		} else {
			res, err = sys.Run()
		}
	})
	work.counters = readCounters(sys).sub(cp.at)
	if w.multiCore() && work.V[cInsts] < w.window {
		err = fmt.Errorf("%s: hit MaxCycles after %d of %d window instructions", cp.name, work.V[cInsts], w.window)
	}
	lats, lens := latencySamples(sys)
	work.latP50NS, work.latP99NS = latencyPercentiles([][]int64{lats}, []int64{lens})
	return dt, digestOf(struct {
		Result sim.Result
		Work   passWork
	}{res, work}), work, err
}

func (w *windowBench) work(*recordTimer) (passWork, error) {
	var out passWork
	var lats [][]int64
	var lens []int64
	for _, cp := range w.cps {
		out.add(cp.last.counters)
		l, n := latencySamples(cp.traced)
		lats, lens = append(lats, l), append(lens, n)
	}
	out.latP50NS, out.latP99NS = latencyPercentiles(lats, lens)
	return out, nil
}

// latencySamples copies a System's read-latency reservoir (bus cycles),
// merged across controllers, and the read count it stands for.
func latencySamples(s *sim.System) ([]int64, int64) {
	var samples []int64
	var reads int64
	for _, ctrl := range s.Controllers() {
		samples = append(samples, ctrl.LatencySamples()...)
		reads += ctrl.NumReads
	}
	return samples, reads
}

// latencyPercentiles returns the median and 99th percentile read latency
// in nanoseconds over several reservoirs, each weighted by its read count.
// A reservoir covers a System's whole run, warm-up included.
func latencyPercentiles(sets [][]int64, reads []int64) (p50, p99 float64) {
	v := stats.WeightedPercentiles(sets, reads, []float64{0.5, 0.99})
	if len(v) < 2 {
		return 0, 0
	}
	t := dram.DDR4()
	return t.NS(v[0]), t.NS(v[1])
}
