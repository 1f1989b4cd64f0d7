package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// compareMain compares two logs of benchmark runs, each the concatenated
// standard output of any number of runs on one commit:
//
//	figperf compare parent.log change.log
//
// It refuses (exit 2) when the runs' machine stamps differ. Otherwise it
// prints, per workload and metric, each side's median and quartiles and
// the ratio of the medians, and flags a result_digest that differs
// between the sides for the same workload and seed.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "figperf: usage: compare A.log B.log")
		return 2
	}
	var sides [2][]loggedRun
	for i, path := range args {
		runs, err := readRuns(path)
		if err != nil {
			fmt.Fprintf(stderr, "figperf: %v\n", err)
			return 2
		}
		sides[i] = runs
	}
	if err := sameMachine(append(append([]loggedRun{}, sides[0]...), sides[1]...)); err != nil {
		fmt.Fprintf(stderr, "figperf: refusing to compare: %v\n", err)
		return 2
	}
	for _, line := range compareRuns(sides[0], sides[1]) {
		fmt.Fprintln(stdout, line)
	}
	return 0
}

// loggedRun is one benchmark run read back from its output.
type loggedRun struct {
	record
	result
}

// readRuns reads every (record, result) pair from a log.
func readRuns(path string) ([]loggedRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []loggedRun
	var rec *record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if js, ok := strings.CutPrefix(line, "record "); ok {
			rec = new(record)
			if err := json.Unmarshal([]byte(js), rec); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			continue
		}
		if rec != nil && strings.HasPrefix(line, "{") {
			r := loggedRun{record: *rec}
			if err := json.Unmarshal([]byte(line), &r.result); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			runs = append(runs, r)
			rec = nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no benchmark runs", path)
	}
	return runs, nil
}

// sameMachine reports an error unless every run carries one machine
// stamp.
func sameMachine(runs []loggedRun) error {
	want := runs[0].Stamp.machine()
	for _, r := range runs[1:] {
		if got := r.Stamp.machine(); got != want {
			return fmt.Errorf("machine or toolchain differs: %+v vs %+v", want, got)
		}
	}
	return nil
}

// compareRuns renders the comparison of side a (the base) and side b.
func compareRuns(a, b []loggedRun) []string {
	type key struct {
		workload, metric string
	}
	values := [2]map[key][]float64{{}, {}}
	digests := map[string]string{} // workload/seed -> digest on side a
	var out []string
	for side, runs := range [2][]loggedRun{a, b} {
		for _, r := range runs {
			for name, m := range r.Metrics {
				k := key{r.Workload, name}
				values[side][k] = append(values[side][k], m.Value)
			}
			if r.Trace {
				continue
			}
			id := fmt.Sprintf("%s seed %d", r.Workload, r.Seed)
			if side == 0 {
				digests[id] = r.ResultDigest
			} else if d, ok := digests[id]; ok && d != r.ResultDigest {
				out = append(out, fmt.Sprintf("%s: result_digest differs, simulated statistics changed", id))
			}
		}
	}
	var keys []key
	for k := range values[0] {
		if _, ok := values[1][k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	for _, k := range keys {
		va, vb := values[0][k], values[1][k]
		a1, am, a3 := quartiles(va)
		b1, bm, b3 := quartiles(vb)
		r := "n/a"
		if am != 0 {
			r = fmt.Sprintf("%.4f", bm/am)
		}
		out = append(out, fmt.Sprintf("%-14s %-34s A %.6g [%.6g %.6g] n=%d   B %.6g [%.6g %.6g] n=%d   B/A %s",
			k.workload, k.metric, am, a1, a3, len(va), bm, b1, b3, len(vb), r))
	}
	return out
}
