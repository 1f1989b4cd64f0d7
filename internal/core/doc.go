// Package core implements the FIGARO paper's primary contributions —
// the functional (metadata and policy) half of the in-DRAM caching
// designs, which plug into the timing stack through memctrl.CacheHook:
//
//   - FIGARO (figaro.go): a functional model of fine-grained in-DRAM data
//     relocation. The RELOC command copies one column of data between the
//     local row buffers of two subarrays in a bank through the shared
//     global row buffer, supporting unaligned source/destination columns
//     (Section 4.1, Figure 4).
//
//   - FIGCache (figcache.go, fts.go, replacement.go): a fine-grained
//     in-DRAM cache built on FIGARO. It caches row segments (default 1/8
//     of a row) from slow subarrays into a small set of cache rows,
//     tracked by a tag store (FTS) in the memory controller, with an
//     insert-any-miss insertion policy and a row-granularity
//     benefit-based replacement policy (Section 5). The FTS keeps each
//     cache row's benefit sum incrementally, so that policy scans rows,
//     not slots. Each FTS slot is free, reserved or valid: a segment
//     whose insertion the controller has planned but not yet executed
//     holds a reserved slot until FIGCache.Commit installs it.
//     FIGCache-Ideal is the same cache on SubstrateIdeal, whose RELOCs
//     cost nothing.
//
//   - LISA-VILLA: the state-of-the-art in-DRAM cache baseline the paper
//     compares against (Section 3) is the same kind of cache with other
//     settings, built by LISAVillaConfig: whole-row segments cached into
//     16 fast subarrays interleaved among the slow ones, inserted after
//     two misses with decaying counts, LRU replacement, and relocation by
//     LISA row-buffer movement, whose latency grows with the hop distance
//     (SubstrateLISA).
//
// The timing integration with the memory controller goes through
// memctrl.CacheHook; this package owns all cache metadata and policy
// decisions, while the controller and internal/dram charge the cycles.
//
// FIGCache.Snapshot/Restore (snapshot.go) serialize the tag stores,
// replacement state, and insertion-policy counters for the system
// checkpoint lifecycle (sim.System.Snapshot).
package core
