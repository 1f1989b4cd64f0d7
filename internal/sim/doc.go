// Package sim assembles and runs the full simulated system of the FIGARO
// paper: trace-driven cores (internal/cpu), the SRAM hierarchy
// (internal/cache), per-channel memory controllers (internal/memctrl)
// over the DDR4 device model (internal/dram), and the in-DRAM cache
// configurations of Section 8 (Base, LISA-VILLA, FIGCache-Slow,
// FIGCache-Fast, FIGCache-Ideal, LL-DRAM). It runs the whole system on
// one CPU-cycle clock (3.2 GHz) with the DRAM bus ticking every fourth
// cycle (800 MHz).
//
// The package is the repository's layer between the hardware models
// below it and the experiment machinery above it. Three contracts define
// that seam (ARCHITECTURE.md describes each in depth):
//
//   - Engine equivalence. System.Run normally uses a cycle-skipping,
//     batching engine; the dense cycle-by-cycle reference loop is kept
//     behind Config.DenseLoop, and TestEngineEquivalence enforces that
//     both produce bit-identical Results. Any timing-model change must
//     keep that test green. The skipping engine schedules cores one by
//     one: a cycle ticks only the due cores, and a blocked or batching
//     core stays lazy until something needs its state. Dispatch settles
//     a core before an event touches it (settle before touch), and every
//     exit settles all cores, so snapshots and results see dense state.
//
//   - Run identity. Config.Fingerprint() is the canonical identity of a
//     run: a SHA-256 over the normalized configuration plus
//     EngineVersion. Equal fingerprints imply bit-identical Results, the
//     property the harness's result caching, cross-process persistence
//     (internal/expcache), and the dispatch fleet all build on. Bump
//     EngineVersion with any change that can alter what a run produces.
//
//   - System reuse. System.Reset retargets a built System to any
//     same-shape configuration (Config.ShapeKey), reusing its long-lived
//     allocations; the harness keeps one idle System per shape on each
//     worker and runs every job solo on it. A Reset-reused System must
//     remain bit-identical to a freshly constructed one (also enforced
//     by TestEngineEquivalence).
//
//   - Checkpoint/restore. System.Snapshot serializes the complete
//     mid-run state of every layer into the versioned FGSS format
//     (internal/fgss; header carries EngineVersion and the config
//     fingerprint, and Restore refuses a mismatch of either).
//     System.RunUntilRetired is the checkpoint stop-point; a run
//     checkpointed at instruction K and resumed — in-process or
//     restored into a fresh System — finishes bit-identical to an
//     uninterrupted run, for both engines (TestEngineEquivalence's
//     checkpoint-at-K cases).
package sim
