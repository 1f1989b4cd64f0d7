// Package expcache is the experiment-result store behind the harness: a
// two-tier cache of sim.Results keyed by sim.Fingerprint, plus the Store
// seam through which the dispatch coordinator lands worker uploads in a
// cache directory.
//
// # Result cache
//
// Tier one is an in-process map (shared-run dedup within one
// figbench/test invocation); tier two is an optional content-addressed
// on-disk store that makes full-matrix reruns incremental — a rerun
// after a code change only recomputes runs whose fingerprint (which
// folds in sim.EngineVersion) changed.
//
// Disk entries are versioned JSON envelopes named <fingerprint>.json.
// Reads are defensive: a corrupt, truncated, foreign-format, or
// stale-engine file is a miss, never an error — the run is simply
// recomputed and the entry rewritten. Writes are atomic (temp file +
// rename), so concurrent writers of the same fingerprint — racing
// processes, or racing workers of one process — land one complete entry.
//
// # One validation rule
//
// DecodeEntry is the single judge of an entry's validity: the disk
// cache applies it on every read, and the dispatch coordinator applies
// it to every worker upload and to every file it adopts when resuming
// over a partial directory. A directory is therefore complete for a
// matrix exactly when every matrix fingerprint has an entry that
// decodes; no side file records coverage.
package expcache
