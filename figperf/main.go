package main

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// benchMain parses the benchmark's arguments, runs one workload and
// prints its result; it returns the process exit code.
func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("figperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", fmt.Sprintf("workload to run: one of %v", benchNames))
	seed := fs.Uint64("seed", 1, "workload seed (Config.Seed of every warm simulation)")
	seconds := fs.Float64("seconds", 15, "host seconds of timed passes to run")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a separate traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "figperf: usage: --workload NAME --seed N --seconds S --trace 0|1")
		return 2
	}
	res, err := run(runOpts{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1},
		defaultParams(), runtime.NumCPU(), stdout)
	if err != nil {
		fmt.Fprintf(stderr, "figperf: %v\n", err)
		return 1
	}
	if !res.Correct {
		fmt.Fprintf(stderr, "figperf: %d of %d simulations failed\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

type runOpts struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

// result is the last line of the benchmark's output.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func (r *result) count(ps passStats) {
	r.Attempted += ps.attempted
	r.Failed += ps.failed
}

// record precedes each result line and identifies the run for compare.
type record struct {
	Stamp        stamp  `json:"stamp"`
	Workload     string `json:"workload"`
	Seed         uint64 `json:"seed"`
	Trace        bool   `json:"trace"`
	ResultDigest string `json:"result_digest"`
}

// Profile samples of the timed calls carry this label, so the fold leaves
// out set-up, Restore and the benchmark's own bookkeeping.
const (
	timedLabelKey = "figperf"
	timedLabelVal = "timed"
)

// timedCall times f. A traced call is labelled for the profile fold;
// goroutines f starts inherit the label.
func timedCall(traced bool, f func()) time.Duration {
	t0 := time.Now()
	if traced {
		pprof.Do(context.Background(), pprof.Labels(timedLabelKey, timedLabelVal), func(context.Context) { f() })
	} else {
		f()
	}
	return time.Since(t0)
}

// run executes one workload: its set-ups, then timed passes for the time
// budget, or with o.trace a separate traced run. It prints diagnostics,
// a record line and the result JSON as the last line.
func run(o runOpts, p params, workers int, out io.Writer) (result, error) {
	printf := func(format string, args ...any) { fmt.Fprintf(out, format+"\n", args...) }
	b, err := newBench(o.workload, p, workers)
	if err != nil {
		return result{}, err
	}
	st := currentStamp()
	printf("stamp cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s source=%s workers=%d",
		st.CPU, st.NProc, st.GOMAXPROCS, st.Go, st.Commit, st.Source, workers)

	var setups []float64
	for i := 0; i < p.setups; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := b.setup(o.seed); err != nil {
			return result{}, fmt.Errorf("%s set-up: %w", o.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	b.report(printf)
	res := result{Metrics: metricSet{}}
	var first passStats
	if !o.trace {
		first = timedPasses(b, o, &res, printf)
		res.Metrics.set("setup_s", "s", median(setups))
		res.Metrics.set("max_rss_mb", "MB", maxRSSMB())
	} else if first, err = tracedPasses(b, o, p, &res, printf); err != nil {
		return result{}, err
	}
	res.Correct = res.Failed == 0

	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		printf("metric %s %g %s", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	digest := hex.EncodeToString(first.digest[:])
	printf("result_digest %s %s", o.workload, digest)
	rec, err := json.Marshal(record{Stamp: st, Workload: o.workload, Seed: o.seed, Trace: o.trace, ResultDigest: digest})
	if err != nil {
		return result{}, err
	}
	printf("record %s", rec)
	line, err := json.Marshal(res)
	if err != nil {
		return result{}, err
	}
	printf("%s", line)
	return res, nil
}

// timedPasses runs untraced passes for the time budget and sets the
// timing metrics; it returns the first pass.
func timedPasses(b bench, o runOpts, res *result, printf func(string, ...any)) passStats {
	var first passStats
	var walls, rates []float64
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for n := 0; n < minPasses || time.Now().Before(deadline); n++ {
		runtime.GC()
		ps := b.pass(nil)
		if n == 0 {
			first = ps
		}
		res.count(ps)
		walls = append(walls, ps.timed.Seconds())
		rates = append(rates, float64(ps.insts)/ps.timed.Seconds()/1e6)
	}
	res.Metrics.set("sim_minsts_per_s", "Minst/s", median(rates))
	res.Metrics.set("wall_s", "s", median(walls))
	q1, q2, q3 := quartiles(walls)
	printf("passes %d, timed s per pass: quartiles %.4f %.4f %.4f, min %.4f, max %.4f",
		len(walls), q1, q2, q3, slices.Min(walls), slices.Max(walls))
	printf("simulations %d, failed %d, failed_frac %g", res.Attempted, res.Failed,
		ratio(int64(res.Failed), int64(res.Attempted)))
	return first
}

// tracedPasses alternates untraced and traced passes for the time budget,
// so both see the same machine conditions, and sets the per-layer
// metrics; it returns the first untraced pass. The CPU profiler runs
// during traced passes only.
func tracedPasses(b bench, o runOpts, p params, res *result, printf func(string, ...any)) (passStats, error) {
	var first, last passStats
	timer := &recordTimer{}
	selfNS := map[string]int64{}
	var untraced, traced []float64
	var allocs, gcs uint64
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		runtime.GC()
		ps := b.pass(nil)
		if n == 0 {
			first = ps
		}
		res.count(ps)
		untraced = append(untraced, ps.timed.Seconds())

		runtime.GC()
		var prof bytes.Buffer
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return first, err
		}
		last = b.pass(timer)
		pprof.StopCPUProfile()
		runtime.ReadMemStats(&after)
		res.count(last)
		traced = append(traced, last.timed.Seconds())
		allocs += after.TotalAlloc - before.TotalAlloc
		gcs += uint64(after.NumGC - before.NumGC)
		fold, err := foldProfile(prof.Bytes(), timedLabelKey, timedLabelVal)
		if err != nil {
			return first, err
		}
		for k, v := range fold {
			selfNS[k] += v
		}
	}

	work, err := b.work(timer)
	res.Attempted++
	if err != nil {
		printf("per-layer work run failed: %v", err)
		res.Failed++
	}
	records, recordNS := timer.totals()
	n := float64(len(traced))
	in := layerInputs{
		selfNS: selfNS, passes: len(traced), work: work, records: records, recordNS: recordNS,
		allocMB:  float64(allocs) / n / (1 << 20),
		gcCycles: float64(gcs) / n,
		overhead: median(traced) / median(untraced),
	}
	if o.workload == "fig7-cold" {
		in.fig7 = last
		printf("model.fig7_fast_speedup_intensive %.3f (paper: 1.161, +16.1%%); cold start at %d instructions per run, not converged",
			last.fastSpeedup, p.fig7Insts)
	}
	res.Metrics = layerMetrics(in)
	printf("passes %d untraced + %d traced, profiled self time %.3f s, simulations %d, failed %d",
		len(untraced), len(traced), float64(sum(selfNS))/1e9, res.Attempted, res.Failed)
	return first, nil
}

func sum(m map[string]int64) int64 {
	var s int64
	for _, v := range m {
		s += v
	}
	return s
}

// median of xs, which must be non-empty.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// quartiles returns the quartiles of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method);
// a single value is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}
