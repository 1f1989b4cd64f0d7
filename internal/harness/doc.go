// Package harness regenerates every table and figure of the paper's
// evaluation (Sections 7-9) and is the layer that turns one sim.System
// run into an experiment matrix: it enumerates the required (preset,
// workload) configurations per figure, executes them on a worker pool
// with per-worker sim.System reuse, dedups and caches results by
// configuration fingerprint (internal/expcache, optionally persistent),
// and renders the same rows and series the paper reports. cmd/figbench
// drives it at full scale; bench_test.go drives scaled-down versions.
//
// Every uncached job runs solo on its worker's pooled System: each
// worker keeps one idle System per shape (sim.Config.ShapeKey) and
// Reset-retargets it, so a figure row — one app under every preset —
// builds one System and reuses it for the rest of the row.
//
// The Scale struct is the single knob for matrix cost (instruction
// budget, workload subset, circuit-model iterations, parallelism);
// DefaultScale is the full matrix, QuickScale the minutes-scale version
// used by tests.
//
// For fanning the matrix out across machines (internal/dispatch), the
// package also provides plan-only enumeration (enumerate.go):
// EnumerateJobs runs the experiment builders in a mode that records
// every distinct job without simulating and returns the canonical
// fingerprint-ordered index, and RunJobs computes an arbitrary slice of
// it through the result cache. See ARCHITECTURE.md "Distributed
// dispatch" for the fleet workflow.
package harness
