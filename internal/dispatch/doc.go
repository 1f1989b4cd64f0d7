// Package dispatch is the one way to spread the experiment matrix over
// several processes or machines: a Coordinator enumerated over the
// matrix serves fingerprint leases to workers over HTTP, tracks
// heartbeats and deadlines, re-dispatches expired or straggling leases,
// and validates uploaded result entries with the exact expcache decode
// rule the disk cache applies — so a warm figbench rerun against the
// coordinator's directory recomputes nothing and renders byte-identical
// tables to a solo run.
//
// The protocol leans on three existing invariants:
//
//   - the matrix index is canonical (harness.EnumerateJobs +
//     SortByFingerprint): coordinator and workers enumerate it
//     independently and must agree fingerprint-for-fingerprint;
//   - entries are content-addressed, self-validating, and atomic on
//     disk (expcache), so accepting an upload is decode-and-rename and
//     duplicate work from re-dispatched leases resolves first-writer-
//     wins with byte-level conflict detection;
//   - the engine is deterministic, so any two honest workers of the
//     same build produce byte-identical entries and every failure path
//     (crash, stall, duplicate, restart) converges to the same bytes.
//
// A run ends by handshake, not by timing: lease requests long-poll on
// the coordinator's change signal, every reply after completion tells
// the worker the matrix is done, and the coordinator is Finished once
// every worker heard from within the last lease TTL has been told.
//
// Safety under faults is exercised in-process by the chaos test
// (TestDispatchConvergesUnderFaults) via Faults, the worker-side fault
// injection hooks, and end to end by the CI dispatch job. See
// ARCHITECTURE.md "Distributed dispatch" for the lease protocol,
// re-dispatch rules, upload validation, the exit rule, and resume
// semantics.
package dispatch
