package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sim.(*System).runSkippingUntil":                 "sim",
		"repro/internal/cache.(*Cache).Access":                          "cache",
		"repro/internal/sim.NewWithOpener.func1":                        "sim",
		"repro/internal/lint/load.(*Loader).Load":                       "lint",
		"repro/internal/arena.Slice[go.shape.struct { repro/a.b int }]": "arena",
		"repro/internal/x.(*T[go.shape.int,repro/y.z]).M":               "x",
		"runtime.mallocgc":    otherLayer,
		"sort.Slice":          otherLayer,
		"main.run":            otherLayer,
		"repro/figperf.run":   otherLayer,
		"repro/internalx/y.F": otherLayer,
		"github.com/google/pprof/profile.(*P).Parse": otherLayer,
		"": otherLayer,
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// pb builds protobuf messages for the synthetic profile.
type pb struct{ bytes.Buffer }

func (b *pb) varint(v uint64) {
	for v >= 0x80 {
		b.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	b.WriteByte(byte(v))
}

func (b *pb) int(field int, v uint64) *pb {
	b.varint(uint64(field)<<3 | 0)
	b.varint(v)
	return b
}

func (b *pb) msg(field int, m []byte) *pb {
	b.varint(uint64(field)<<3 | 2)
	b.varint(uint64(len(m)))
	b.Write(m)
	return b
}

func (b *pb) packed(field int, vs ...uint64) *pb {
	var p pb
	for _, v := range vs {
		p.varint(v)
	}
	return b.msg(field, p.Bytes())
}

// syntheticProfile encodes a CPU profile whose location 1 is
// cache.Access inlined into sim.run, with one unlabelled sample.
func syntheticProfile(t *testing.T) []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"repro/internal/cache.(*Cache).Access", "repro/internal/sim.(*System).run",
		"runtime.mallocgc", "sort.insertionSort", timedLabelKey, timedLabelVal}
	var p pb
	p.msg(profSampleType, new(pb).int(1, 1).int(2, 2).Bytes())
	p.msg(profSampleType, new(pb).int(1, 3).int(2, 4).Bytes())
	label := new(pb).int(labelKey, 9).int(labelStr, 10).Bytes()
	sample := func(ns uint64, labelled bool, locs ...uint64) {
		s := new(pb).packed(sampleLocationID, locs...).packed(sampleValue, 1, ns)
		if labelled {
			s.msg(sampleLabel, label)
		}
		p.msg(profSample, s.Bytes())
	}
	sample(10e6, true, 1, 2) // inlined cache.Access: cache
	sample(20e6, true, 2)    // sim
	sample(5e6, true, 3, 2)  // runtime.mallocgc: runtime
	sample(7e6, true, 4)     // sort: runtime
	sample(99e6, false, 2)   // outside the timed calls
	// One sample with location IDs and values written unpacked.
	unpacked := new(pb).int(sampleLocationID, 2).int(sampleValue, 1).int(sampleValue, 3e6)
	p.msg(profSample, unpacked.msg(sampleLabel, label).Bytes())

	loc := func(id uint64, fns ...uint64) {
		l := new(pb).int(locationID, id)
		for _, fn := range fns {
			l.msg(locationLine, new(pb).int(lineFunctionID, fn).int(2, 10).Bytes())
		}
		p.msg(profLocation, l.Bytes())
	}
	loc(1, 1, 2) // Line[0] is the inlined callee
	loc(2, 2)
	loc(3, 3)
	loc(4, 4)
	for id, name := range []uint64{5, 6, 7, 8} {
		p.msg(profFunction, new(pb).int(functionID, uint64(id+1)).int(functionName, name).Bytes())
	}
	for _, s := range strs {
		p.msg(profStringTable, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestFoldProfile(t *testing.T) {
	got, err := foldProfile(syntheticProfile(t), timedLabelKey, timedLabelVal)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"cache": 10e6, "sim": 23e6, otherLayer: 12e6}
	if len(got) != len(want) {
		t.Fatalf("fold = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("fold[%s] = %d, want %d (fold %v)", k, got[k], v, got)
		}
	}
}

func TestFoldProfileRejectsTruncated(t *testing.T) {
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte{0x12, 0x05, 0x01}) // sample field claiming 5 bytes, holding 1
	zw.Close()
	if _, err := foldProfile(gz.Bytes(), timedLabelKey, timedLabelVal); err == nil {
		t.Fatal("truncated profile folded without error")
	}
}

func TestRatioHelpers(t *testing.T) {
	for _, c := range []struct {
		got, want float64
	}{
		{ratio(1, 4), 0.25},
		{ratio(5, 0), 0},
		{nsPer(5000, 10, 1000), 500_000}, // 5 µs over 10 instructions: per kinst
		{nsPer(600, 3, 1), 200},
		{nsPer(600, 0, 1), 0},
	} {
		if c.got != c.want {
			t.Errorf("got %g, want %g", c.got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Values from Python: statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{5, 1, 4, 2}, [3]float64{1.25, 3, 4.75}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
}

func TestMetricNameCharset(t *testing.T) {
	for _, ok := range []string{"wall_s", "sim.ns_per_kcycle", "cache.llc_mpki", "a-b.c_d9", "9lives"} {
		if !metricName.MatchString(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "a b", "a/b", "lat%", strings.Repeat("a", 65)} {
		if metricName.MatchString(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("bad name", func() { metricSet{}.set("a b", "s", 1) })
	mustPanic("duplicate", func() {
		m := metricSet{}
		m.set("a", "s", 1)
		m.set("a", "s", 2)
	})
}

// declared reads BENCHMARK.json's metric declarations.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	for _, w := range b.Workloads {
		if !slices.Contains(benchNames, w.Name) {
			t.Errorf("BENCHMARK.json workload %s is not one of %v", w.Name, benchNames)
		}
	}
	return endToEnd, perLayer
}

// tinyParams shrinks every workload to a fraction of a second.
func tinyParams() params {
	return params{
		fig7Insts: 2_000,
		lightWarm: 40_000, lightWindow: 10_000,
		mixWarm: 80_000, mixWindow: 20_000,
		warmEpochs: 2, setups: 1,
	}
}

// TestSmokeEveryWorkload runs each workload at tiny scale, untraced and
// traced, and checks the output contract: the last line is the result,
// every declared metric is emitted with its unit and nothing else, and
// the traced run reproduces the untraced run's results.
func TestSmokeEveryWorkload(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, name := range benchNames {
		t.Run(name, func(t *testing.T) {
			digests := map[bool]string{}
			for _, trace := range []bool{false, true} {
				var out bytes.Buffer
				res, err := run(runOpts{workload: name, seed: 7, seconds: 0.01, trace: trace}, tinyParams(), 2, &out)
				if err != nil {
					t.Fatalf("trace=%v: %v\n%s", trace, err, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var last result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Fatalf("trace=%v: last line is not the result: %v", trace, err)
				}
				if !last.Correct || last.Failed != 0 || last.Attempted < 1 || last.Attempted != res.Attempted {
					t.Fatalf("trace=%v: result %+v\n%s", trace, last, out.String())
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				for m, unit := range want {
					if got, ok := last.Metrics[m]; !ok || got.Unit != unit {
						t.Errorf("trace=%v: metric %s = %+v, want unit %s", trace, m, got, unit)
					}
				}
				for m := range last.Metrics {
					if _, ok := want[m]; !ok {
						t.Errorf("trace=%v: undeclared metric %s", trace, m)
					}
				}
				for _, l := range lines {
					if d, ok := strings.CutPrefix(l, "result_digest "+name+" "); ok {
						digests[trace] = d
					}
				}
			}
			if digests[false] == "" || digests[false] != digests[true] {
				t.Errorf("result_digest untraced %q, traced %q", digests[false], digests[true])
			}
		})
	}
}

func writeLog(t *testing.T, dir, name string, recs ...record) string {
	var b strings.Builder
	for i, r := range recs {
		js, _ := json.Marshal(r)
		res, _ := json.Marshal(result{Correct: true, Attempted: 1,
			Metrics: metricSet{"wall_s": {Value: float64(i + 1), Unit: "s"}}})
		b.WriteString("stamp ...\nrecord " + string(js) + "\n" + string(res) + "\n")
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareRefusesAcrossMachines(t *testing.T) {
	dir := t.TempDir()
	base := stamp{CPU: "cpu A", NProc: 2, GOMAXPROCS: 2, Go: "go1.24.0", Commit: "aaa", Source: "1"}
	change := base
	change.Commit, change.Source = "bbb", "2"
	a := writeLog(t, dir, "a.log", record{Stamp: base, Workload: "w", Seed: 1, ResultDigest: "d1"})
	b := writeLog(t, dir, "b.log", record{Stamp: change, Workload: "w", Seed: 1, ResultDigest: "d2"})
	var out, errOut bytes.Buffer
	if code := compareMain([]string{a, b}, &out, &errOut); code != 0 {
		t.Fatalf("same machine, other commit: exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "result_digest differs") || !strings.Contains(out.String(), "wall_s") {
		t.Errorf("comparison output:\n%s", out.String())
	}

	for _, mutate := range []func(*stamp){
		func(s *stamp) { s.CPU = "cpu B" },
		func(s *stamp) { s.NProc = 4 },
		func(s *stamp) { s.GOMAXPROCS = 1 },
		func(s *stamp) { s.Go = "go1.23.0" },
	} {
		other := base
		mutate(&other)
		c := writeLog(t, dir, "c.log", record{Stamp: other, Workload: "w", Seed: 1})
		out.Reset()
		errOut.Reset()
		if code := compareMain([]string{a, c}, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("stamp %+v: exit %d, output %q; want refusal", other, code, out.String())
		}
	}
}
