// Command figperf is the repository's benchmark: simulator host
// throughput on three workloads, measured from outside the simulator
// through its public API, with a separate traced run that attributes host
// time and modelled work to each internal/* layer.
//
// Run it from the repository root; run.sh builds it from the checkout's
// sources first:
//
//	bash figperf/run.sh --workload mix8-warm --seed 1 --seconds 30 --trace 0
//	bash figperf/run.sh compare parent.log change.log
//
// The last line of a run's output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones, with --trace 1 the per-layer ones (BENCHMARK.json
// declares both). Before it come a stamp line (CPU model, nproc,
// GOMAXPROCS, Go version, commit, source hash), the result_digest line
// and a record line that "compare" reads. compare refuses to compare runs
// whose machine or toolchain differ. The process exits 1 when any
// simulation fails.
//
// # Workloads
//
// The traffic follows the paper's evaluation: the 20 Table-2
// single-thread apps split by memory intensity, and eight-core
// multiprogrammed mixes in the 25/50/75/100 % intensive categories.
//
//   - fig7-cold: harness.Runner.Fig7 at the default scale, 20 apps x 6
//     presets at 1M instructions each, Parallelism = nproc, in-memory
//     result cache, a fresh Runner per pass so no pass hits an earlier
//     pass's cache. It is the command users wait on, started cold as
//     figbench starts it, and the only workload that loads harness (System
//     pool, gang, dedupe) and expcache. Its DRAM traffic is almost all
//     reads. The harness fixes Seed=1, so --seed does not apply.
//   - light-1c-base: the ten non-intensive apps, one core, preset Base.
//     Each app is warmed for 24M instructions in set-up and snapshotted;
//     a timed simulation is Restore then Run for a 2M-instruction window.
//     LLC MPKI is 2-6 and there is no in-DRAM cache, so cpu, cache,
//     workload and the sim skip loop do nearly all the work, core does
//     none and memctrl/dram little. This is the bypass workload: a
//     memctrl, dram or FIGCache optimisation is predicted not to move it.
//     BENCHMARK.json does not list it: on a shared 2-vCPU machine its
//     medians moved 15-25 % between sets of runs minutes apart (the other
//     two moved under 7 %), more than a regression bound can absorb, so
//     it is run by hand when a change needs its bypass prediction.
//   - mix8-warm: the first eight-core mix of each intensive category,
//     FIGCache-Fast, 4 channels, warmed for 56M instructions (all cores)
//     past the LLC fill, then Restore and RunUntilRetired for a
//     4M-instruction window. A multi-core Run ends when the slowest core
//     reaches its target, so only RunUntilRetired gives a fixed window.
//     Four controllers share the wake tree, the LLC is contended, the
//     FR-FCFS queues are deep, FIGCache lookups, insertions and
//     relocations are active, and write-backs load the write-drain path
//     fig7-cold never reaches.
//
// Seeds: --seed is Config.Seed of every light-1c-base and mix8-warm
// simulation. The default seed is 1; seed 7 is held out for checking a
// claimed gain on inputs not used while the change was written.
//
// # End-to-end metrics
//
// sim_minsts_per_s is simulated instructions retired on all cores per
// host second of the timed calls (Run, RunUntilRetired or Fig7; Restore
// is not timed), the median over passes. wall_s is the median host time
// of a pass's timed calls; for fig7-cold that is the figure's wall clock.
// setup_s is the median of three set-ups: construction, warm-up and
// snapshots, or for fig7-cold a host warm-up pass. max_rss_mb is the
// process's peak resident memory. A simulation fails when it returns an
// error, stops at MaxCycles short of its window, or gives results other
// than the first pass's; attempted and failed in the result count
// simulations, so failed/attempted is the failed fraction. result_digest
// hashes the first pass's canonical results: a change that only makes
// the simulator faster leaves it unchanged.
//
// # Per-layer metrics and what they should move
//
// The traced run alternates untraced and traced passes. During traced
// passes a CPU profile runs, the timed calls carry a profiler label, and
// every trace reader is wrapped by a sim.TraceOpener that times Next. The
// profile is folded into self time per layer: the package under
// repro/internal of each sample's innermost frame (an inlined function
// counts for its own package), or runtime for every other frame.
//
//   - <layer>.self_share: the layer's share of the profiled self time. A
//     faster layer saves at most its share, which bounds the gain a change
//     to it may claim.
//   - sim.ns_per_kcycle, cpu.ns_per_kinst, cache.ns_per_access,
//     memctrl.ns_per_req, dram.ns_per_cmd (ACT+PRE+RD+WR+REF+RELOC) and
//     core.ns_per_lookup divide a layer's self time per pass by the events
//     it modelled in one pass; workload.ns_per_record is timed around
//     TraceReader.Next.
//   - Counts of modelled work, waits and useful ratios per pass (sim.cycles,
//     cpu.insts, cache.llc_mpki, memctrl.reads, dram.row_hit_rate,
//     core.hit_rate, ...) are exact: a speed-only change must not move
//     them. For fig7-cold they come from running its 120 configurations
//     directly, which must reproduce the harness's simulated cycles.
//     memctrl.read_lat_ns_p50/p99 cover each System's whole run,
//     warm-up included.
//   - harness.* and expcache.* are the fig7-cold Runner's counters, and
//     model.fig7_fast_speedup_intensive is its FIGCache-Fast intensive
//     geomean: a cold-start figure at 1M instructions, not converged, next
//     to the paper's 1.161. They are 0 on the other workloads.
//   - runtime.alloc_mb and runtime.gc_cycles are per traced pass;
//     trace.overhead is the median traced over the median untraced pass.
//
// What each should move, and where:
//
//   - memctrl.*, dram.*, core.* and stats.self_share: sim_minsts_per_s on
//     mix8-warm; predicted flat on light-1c-base.
//   - cpu.*, cache.* and workload.*: sim_minsts_per_s, most on
//     light-1c-base.
//   - sim.* (event queue, wake tree, skip loop): sim_minsts_per_s on
//     mix8-warm and light-1c-base.
//   - harness.* and expcache.*: wall_s on fig7-cold only.
//   - runtime.*: setup_s and max_rss_mb, most on mix8-warm (the largest
//     Systems), and wall_s on fig7-cold, which builds and reuses Systems.
//
// Every run also prints each warm checkpoint's warm-up series
// (LLC miss rate, DRAM write share and in-DRAM cache hit rate per epoch)
// and whether it sits after the LLC fill, with write-backs started where
// mix8-warm needs them, or starts cold.
//
// The benchmark's own tests run with
//
//	cd figperf && go test ./...
package main
