// Package cpu implements the trace-driven processor core model of the
// simulated system (Table 1): a simplified out-of-order core with a
// 256-entry instruction window and 3-wide issue/retire, in the style of
// Ramulator's attached core model. Non-memory instructions occupy window
// entries and retire immediately; loads occupy an entry until their data
// returns from the cache hierarchy; stores retire immediately (modelling
// a write buffer) but still traverse the hierarchy.
//
// The core is the top of the timing stack: it consumes the instruction
// stream internal/workload generates and pushes memory operations into
// internal/cache. Two accessors exist purely for the cycle-skipping
// engine in internal/sim: NextWake bounds the next cycle the core can
// make progress on its own, and BatchableCycles/AdvanceBatch execute
// bubble runs (non-memory instructions issuing at full width) in closed
// form instead of cycle by cycle. AccountSkipped credits the stall
// counters the dense reference loop would have recorded, keeping both
// engines bit-identical (TestEngineEquivalence). The engine holds each
// core lazily and settles it only when its state is needed, so a batch
// may be applied in several AdvanceBatch prefixes, and BatchRetired
// reads a held batch's progress with the formula AdvanceBatch applies.
//
// Core.Snapshot/Restore (snapshot.go) serialize the window ring, issue
// state, and per-core statistics for the system checkpoint lifecycle;
// the trace cursor itself is checkpointed by the system layer, which
// knows the concrete reader type (TraceReader exposes it).
package cpu
