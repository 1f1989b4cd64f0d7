package harness

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/expcache"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Scale controls the cost of the experiment matrix.
type Scale struct {
	// Insts is the per-core retire target of each run.
	Insts int64
	// SingleApps limits the number of single-core applications (max 20).
	SingleApps int
	// MixesPerCategory limits the eight-core mixes per memory-intensity
	// category (max 5).
	MixesPerCategory int
	// MCIterations is the Monte-Carlo iteration count for the circuit
	// model (the paper uses 1e8; 1e4 reproduces the worst case closely).
	MCIterations int
	// Parallelism bounds concurrent simulations (0 = GOMAXPROCS).
	Parallelism int
}

// QuickScale returns a minutes-scale matrix for tests and benches.
func QuickScale() Scale {
	return Scale{Insts: 60_000, SingleApps: 4, MixesPerCategory: 1, MCIterations: 500}
}

// DefaultScale is the figbench default: every workload (all 20 single-
// core applications and all 5 mixes per category, the full matrix) at a
// laptop-scale instruction budget. The budget was raised 400k -> 1M
// instructions per core once batched core execution and the
// allocation-free access path lifted simulator throughput; longer runs
// give the in-DRAM cache more reuse to exploit, so the full-scale
// figures sit closer to the paper's steady-state numbers.
func DefaultScale() Scale {
	return Scale{Insts: 1_000_000, SingleApps: 20, MixesPerCategory: 5, MCIterations: 20_000}
}

// Runner executes simulation runs against a two-tier result cache
// (internal/expcache) and reuses sim.Systems across jobs of the same
// shape, so one experiment matrix pays construction and GC for a handful
// of Systems instead of one per run.
type Runner struct {
	scale Scale
	cache *expcache.Cache
	// force skips the persistent tier on lookups: every run is recomputed
	// once per process (in-process dedup still applies) and rewritten.
	force bool
	// noGang disables gang formation: every uncached run executes solo,
	// exactly as before the gang engine existed (figbench -gang=false).
	noGang bool

	mu sync.Mutex
	// simCycles accumulates the simulated CPU cycles of every computed
	// run, and simWall the wall-clock spent inside simulation batches
	// (excluding the circuit model and table rendering) — numerator and
	// denominator of the SimCyclesPerSecond throughput metric.
	simCycles int64
	simWall   time.Duration
	// sysBuilt / sysReused count fresh sim.New constructions versus
	// Reset-reuses across all workers (diagnostics for the reuse rate).
	sysBuilt, sysReused int64
	// gangsFormed counts executed gangs and gangedRuns the member runs
	// they carried; computed-minus-ganged runs executed solo.
	gangsFormed, gangedRuns int64
	// pools holds idle System pools between runAll batches, so reuse
	// extends across an experiment sequence (figbench all): a figure's
	// workers inherit the Systems the previous figure's workers released.
	pools []*systemPool

	// planning switches runAll into job enumeration: submitted
	// configurations are recorded in plan (deduplicated via planSeen)
	// and errPlanOnly aborts the calling experiment builder before it
	// renders anything. EnumerateJobs drives this; see enumerate.go.
	planning bool
	plan     []sim.Config
	planSeen map[sim.Fingerprint]bool
}

// NewRunner builds a runner for the scale with an in-memory result cache.
func NewRunner(scale Scale) *Runner {
	return NewRunnerWithCache(scale, expcache.New(""), false)
}

// NewRunnerWithCache builds a runner over an explicit result cache
// (typically disk-backed; see expcache.New). force makes lookups bypass
// the persistent tier so every run is recomputed and rewritten.
func NewRunnerWithCache(scale Scale, cache *expcache.Cache, force bool) *Runner {
	if scale.Parallelism <= 0 {
		scale.Parallelism = runtime.GOMAXPROCS(0)
	}
	if scale.SingleApps <= 0 || scale.SingleApps > 20 {
		scale.SingleApps = 20
	}
	if scale.MixesPerCategory <= 0 || scale.MixesPerCategory > 5 {
		scale.MixesPerCategory = 5
	}
	if cache == nil {
		cache = expcache.New("")
	}
	return &Runner{scale: scale, cache: cache, force: force}
}

// Scale returns the runner's scale.
func (r *Runner) Scale() Scale { return r.scale }

// CacheStats returns the result cache's traffic counters.
func (r *Runner) CacheStats() expcache.Stats { return r.cache.Stats() }

// SystemsBuilt returns how many sim.Systems were freshly constructed.
func (r *Runner) SystemsBuilt() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sysBuilt
}

// SystemsReused returns how many runs executed on a Reset-reused System.
func (r *Runner) SystemsReused() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sysReused
}

// SetGangEnabled toggles gang execution (default on). Disabled, every
// uncached run executes solo — the escape hatch behind figbench's
// -gang=false, and the serial reference of the CI gang-vs-serial diff.
func (r *Runner) SetGangEnabled(enabled bool) { r.noGang = !enabled }

// GangsFormed returns how many gangs runAll executed.
func (r *Runner) GangsFormed() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gangsFormed
}

// GangedRuns returns how many computed runs executed as gang members
// (the remainder of the computed runs executed solo).
func (r *Runner) GangedRuns() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gangedRuns
}

// results holds one batch's completed runs keyed by fingerprint; of is
// the lookup the figure builders use (recomputing a configuration's
// fingerprint is microseconds against the runs behind it). A missing
// fingerprint is a builder bug — the lookup config drifted from the job
// config — and panics rather than rendering silent zeros into a table.
type results map[sim.Fingerprint]sim.Result

func (rs results) of(cfg sim.Config) sim.Result {
	res, ok := rs[cfg.Fingerprint()]
	if !ok {
		panic(fmt.Sprintf("harness: no result for %s: lookup config does not match any submitted job", cfg.Describe()))
	}
	return res
}

// systemPool reuses sim.Systems across jobs of compatible shape. Each
// worker checks out one pool for the duration of a batch, so reuse needs
// no locking and a System is never shared between goroutines. A shape
// maps to a stack of idle Systems — a gang job checks out one per member
// and returns them all, so the pool's depth grows to the largest gang a
// worker has executed.
type systemPool struct {
	systems       map[string][]*sim.System
	built, reused int64
	// gangs/ganged mirror the runner's gang counters at pool scope,
	// folded into the totals by returnPool like built/reused.
	gangs, ganged int64
}

// take pops an idle System of the shape, or returns nil.
func (p *systemPool) take(key string) *sim.System {
	stack := p.systems[key]
	if n := len(stack); n > 0 {
		sys := stack[n-1]
		stack[n-1] = nil
		p.systems[key] = stack[:n-1]
		return sys
	}
	return nil
}

// put returns an idle System to the shape's stack.
func (p *systemPool) put(key string, sys *sim.System) {
	p.systems[key] = append(p.systems[key], sys)
}

// checkoutPool hands a worker an idle pool (with the Systems a previous
// batch's worker released) or a fresh one.
func (r *Runner) checkoutPool() *systemPool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.pools); n > 0 {
		p := r.pools[n-1]
		r.pools[n-1] = nil
		r.pools = r.pools[:n-1]
		return p
	}
	return &systemPool{systems: make(map[string][]*sim.System)}
}

// returnPool takes a pool back at the end of a batch, folding its
// build/reuse counters into the runner's totals.
func (r *Runner) returnPool(p *systemPool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sysBuilt += p.built
	r.sysReused += p.reused
	r.gangsFormed += p.gangs
	r.gangedRuns += p.ganged
	p.built, p.reused, p.gangs, p.ganged = 0, 0, 0, 0
	r.pools = append(r.pools, p)
}

// run executes one configuration, on a Reset-reused System when the pool
// holds one of the right shape, freshly constructed otherwise.
func (p *systemPool) run(cfg sim.Config) (sim.Result, error) {
	key := cfg.ShapeKey()
	if sys := p.take(key); sys != nil {
		if err := sys.Reset(cfg); err == nil {
			p.reused++
			p.put(key, sys)
			return sys.Run()
		}
		// A failed Reset leaves the System partially reinitialized; drop
		// it and rebuild. (Shape mismatches cannot happen under ShapeKey
		// keying; this covers config errors surfaced mid-Reset.)
	}
	sys, err := sim.New(cfg)
	if err != nil {
		return sim.Result{}, err
	}
	p.built++
	// A Run error (instruction target not reached within MaxCycles) does
	// not poison the System: Reset reinitializes every piece of state, so
	// the System stays pooled either way.
	p.put(key, sys)
	return sys.Run()
}

// runGang executes a group of same-workload configurations as one
// sim.Gang over a shared instruction stream, reusing pooled Systems for
// as many members as the shape stack holds. ok=false reports that the
// gang could not be assembled (a member construction or Reset failed);
// the caller falls back to solo execution, which reproduces — and
// properly attributes — any per-configuration error.
func (p *systemPool) runGang(cfgs []sim.Config) (results []sim.Result, errs []error, ok bool) {
	key := cfgs[0].ShapeKey() // GangKey folds in the shape, so all members share it
	var reuse []*sim.System
	for len(reuse) < len(cfgs) {
		sys := p.take(key)
		if sys == nil {
			break
		}
		reuse = append(reuse, sys)
	}
	g, err := sim.NewGang(cfgs, reuse)
	if err != nil {
		// The reuse Systems may be partially reinitialized or hold readers
		// of the abandoned gang's shared stream; discard them.
		return nil, nil, false
	}
	p.reused += int64(len(reuse))
	p.built += int64(len(cfgs) - len(reuse))
	p.gangs++
	p.ganged += int64(len(cfgs))
	results, errs = g.Run()
	for _, sys := range g.Members() {
		p.put(key, sys)
	}
	return results, errs, true
}

// runAll executes the configurations (deduplicated by fingerprint and
// served from the result cache where possible) and returns results by
// fingerprint. Workers pull jobs from a shared index and each keep their
// own System pool. When jobs fail, every failure is reported — one line
// per run, in deterministic (sorted) order — so a large batch with
// several broken configurations surfaces all of them at once instead of
// hiding siblings behind the first error. Completed runs are cached even
// when a sibling fails, so a retry does not recompute them.
func (r *Runner) runAll(cfgs []sim.Config) (results, error) {
	if r.planning {
		for _, cfg := range cfgs {
			fp := cfg.Fingerprint()
			if !r.planSeen[fp] {
				r.planSeen[fp] = true
				r.plan = append(r.plan, cfg)
			}
		}
		return nil, errPlanOnly
	}
	out := make(results, len(cfgs))
	var todo []sim.Config
	var fps []sim.Fingerprint
	seen := make(map[sim.Fingerprint]bool, len(cfgs))
	lookup := r.cache.Get
	if r.force {
		lookup = r.cache.GetMem
	}
	for _, cfg := range cfgs {
		fp := cfg.Fingerprint()
		if seen[fp] {
			continue
		}
		seen[fp] = true
		if res, ok := lookup(fp); ok {
			out[fp] = res
			continue
		}
		todo = append(todo, cfg)
		fps = append(fps, fp)
	}
	if len(todo) == 0 {
		return out, nil
	}

	// Partition the uncached runs into jobs: groups of same-workload
	// configurations (equal sim.Config.GangKey) execute as one gang over a
	// shared instruction stream; singletons — and everything when gangs
	// are disabled — execute solo. Each job element indexes todo/fps.
	// First-seen group order keeps job order deterministic.
	var jobs [][]int
	if r.noGang {
		for i := range todo {
			jobs = append(jobs, []int{i})
		}
	} else {
		groups := make(map[string]int, len(todo))
		for i, cfg := range todo {
			key := cfg.GangKey()
			if j, ok := groups[key]; ok {
				jobs[j] = append(jobs[j], i)
			} else {
				groups[key] = len(jobs)
				jobs = append(jobs, []int{i})
			}
		}
	}

	batchStart := time.Now()
	workers := r.scale.Parallelism
	if workers > len(jobs) {
		workers = len(jobs)
	}
	var next atomic.Int64
	var mu sync.Mutex
	var failures []error
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pool := r.checkoutPool()
			defer r.returnPool(pool)
			// finish records one member run's outcome: failures are
			// collected per run (a gang sibling's failure never hides a
			// completed run), successes are persisted immediately (disk
			// failures degrade to in-memory caching; expcache records them
			// in its stats).
			finish := func(i int, res sim.Result, err error) {
				if err != nil {
					mu.Lock()
					failures = append(failures, fmt.Errorf("%s: %w", todo[i].Describe(), err))
					mu.Unlock()
					return
				}
				_ = r.cache.Put(fps[i], res)
				mu.Lock()
				out[fps[i]] = res
				mu.Unlock()
				r.mu.Lock()
				r.simCycles += res.Cycles
				r.mu.Unlock()
			}
			for {
				j := int(next.Add(1)) - 1
				if j >= len(jobs) {
					return
				}
				job := jobs[j]
				if len(job) > 1 {
					cfgs := make([]sim.Config, len(job))
					for k, i := range job {
						cfgs[k] = todo[i]
					}
					if results, errs, ok := pool.runGang(cfgs); ok {
						for k, i := range job {
							finish(i, results[k], errs[k])
						}
						continue
					}
					// Gang assembly failed (a member's construction or Reset
					// errored): fall through to solo runs, which reproduce
					// and attribute every per-configuration error.
				}
				for _, i := range job {
					res, err := pool.run(todo[i])
					finish(i, res, err)
				}
			}
		}()
	}
	wg.Wait()
	r.mu.Lock()
	r.simWall += time.Since(batchStart)
	r.mu.Unlock()
	if len(failures) > 0 {
		// Worker completion order is nondeterministic; sort so the report
		// (and tests over it) are stable.
		sort.Slice(failures, func(i, k int) bool {
			return failures[i].Error() < failures[k].Error()
		})
		return nil, fmt.Errorf("harness: %d of %d jobs failed: %w",
			len(failures), len(todo), errors.Join(failures...))
	}
	return out, nil
}

// SimCycles returns the total number of CPU cycles simulated by this
// runner (cache hits excluded: each run is counted once, when computed).
func (r *Runner) SimCycles() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.simCycles
}

// SimWallSeconds returns the wall-clock seconds this runner spent inside
// simulation batches (the circuit model and table rendering excluded).
func (r *Runner) SimWallSeconds() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.simWall.Seconds()
}

// SimCyclesPerSecond returns the runner's simulation throughput —
// simulated CPU cycles per wall-clock second spent simulating: the
// headline "how fast does the simulator run" metric the benchmarks and
// cmd/figbench report.
func (r *Runner) SimCyclesPerSecond() float64 {
	s := r.SimWallSeconds()
	if s <= 0 {
		return 0
	}
	return float64(r.SimCycles()) / s
}

// baseConfig builds the standard run configuration.
func (r *Runner) baseConfig(p sim.Preset, mix workload.Mix) sim.Config {
	cfg := sim.DefaultConfig(p, mix)
	cfg.TargetInsts = r.scale.Insts
	return cfg
}

// singleWorkloads returns the configured subset of single-core workloads,
// keeping the intensive/non-intensive balance.
func (r *Runner) singleWorkloads() []workload.Mix {
	all := workload.SingleCoreWorkloads()
	if r.scale.SingleApps >= len(all) {
		return all
	}
	// Alternate between non-intensive (first half of Benchmarks) and
	// intensive so small subsets stay balanced.
	var intensive, non []workload.Mix
	for _, m := range all {
		if m.Apps[0].MemIntensive() {
			intensive = append(intensive, m)
		} else {
			non = append(non, m)
		}
	}
	var out []workload.Mix
	for i := 0; len(out) < r.scale.SingleApps; i++ {
		if i < len(intensive) {
			out = append(out, intensive[i])
		}
		if len(out) < r.scale.SingleApps && i < len(non) {
			out = append(out, non[i])
		}
		if i >= len(intensive) && i >= len(non) {
			break
		}
	}
	return out
}

// eightCoreMixes returns the configured subset of eight-core mixes.
func (r *Runner) eightCoreMixes() []workload.Mix {
	var out []workload.Mix
	for _, pct := range []int{25, 50, 75, 100} {
		cat := workload.MixesByCategory(workload.EightCoreMixes(), pct)
		if len(cat) > r.scale.MixesPerCategory {
			cat = cat[:r.scale.MixesPerCategory]
		}
		out = append(out, cat...)
	}
	return out
}
