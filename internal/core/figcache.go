package core

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/memctrl"
)

// FIGCacheConfig parameterizes the fine-grained in-DRAM cache.
type FIGCacheConfig struct {
	// SegmentBlocks is the row segment size in cache blocks. The paper's
	// default is 16 blocks (1 kB, 1/8 of an 8 kB row); Section 9.2 sweeps
	// 8 to 128.
	SegmentBlocks int
	// CacheRowsPerBank is the number of in-DRAM cache rows per bank
	// (64 in the paper: two 32-row fast subarrays, or 64 reserved rows of
	// a slow subarray for FIGCache-Slow).
	CacheRowsPerBank int
	// Replacement selects the eviction policy (default ReplRowBenefit).
	Replacement ReplacementKind
	// InsertThreshold is the number of misses a segment must accumulate
	// before it is inserted. 1 is the paper's insert-any-miss policy;
	// Section 9.4 sweeps 1, 2, 4, 8.
	InsertThreshold int
	// BenefitBits is the width of the per-segment benefit counter (5).
	BenefitBits int
	// DecayMisses, when positive, halves every per-segment miss count
	// after this many counted misses in a bank, so segments whose misses
	// are old lose their progress toward InsertThreshold (LISA-VILLA's
	// hot-row detector). Zero keeps counts until the segment is inserted.
	DecayMisses int
	// ReservedSubarray, when >= 0, marks the slow subarray whose rows host
	// the cache in the FIGCache-Slow organization. Segments belonging to
	// that subarray are never cached, because FIGARO cannot relocate data
	// within a single subarray (Section 5.2).
	ReservedSubarray int
	// Substrate selects the in-DRAM relocation mechanism (default FIGARO).
	Substrate Substrate
	// Seed makes the Random replacement policy deterministic.
	Seed uint64
}

// Substrate enumerates the relocation mechanisms FIGCache can be built
// on: FIGARO (the paper's contribution; bank-local, distance-independent),
// RowClone-PSM (the Section 10 related-work baseline, which moves data
// over the shared internal global data bus and blocks the whole channel),
// LISA row-buffer movement (LISA-VILLA's whole-row copy, whose latency
// grows with the hop distance to the nearest fast subarray), or an ideal
// FIGARO whose RELOCs cost nothing (the FIGCache-Ideal upper bound of
// Section 8).
type Substrate int

const (
	SubstrateFIGARO Substrate = iota
	SubstrateRowClonePSM
	SubstrateLISA
	SubstrateIdeal

	numSubstrates
)

var substrateNames = [numSubstrates]string{"FIGARO", "RowClone-PSM", "LISA", "Ideal"}

func (s Substrate) String() string {
	if s < 0 || int(s) >= len(substrateNames) {
		return fmt.Sprintf("Substrate(%d)", int(s))
	}
	return substrateNames[s]
}

// DefaultFIGCacheConfig returns the paper's default FIGCache parameters
// for the fast-subarray organization (FIGCache-Fast).
func DefaultFIGCacheConfig() FIGCacheConfig {
	return FIGCacheConfig{
		SegmentBlocks:    16,
		CacheRowsPerBank: 64,
		Replacement:      ReplRowBenefit,
		InsertThreshold:  1,
		BenefitBits:      5,
		ReservedSubarray: -1,
		Seed:             1,
	}
}

// SlowConfig returns the FIGCache-Slow configuration: the cache rows are
// 64 reserved rows in slow subarray 0, so segments from subarray 0 are
// excluded from caching.
func SlowConfig() FIGCacheConfig {
	cfg := DefaultFIGCacheConfig()
	cfg.ReservedSubarray = 0
	return cfg
}

// LISAVillaConfig returns the LISA-VILLA baseline of Section 3 as a cache
// over geo: whole rows (one segment per row) are cached in the fast
// subarrays interleaved among the slow ones (Table 1: 16 x 32 = 512 rows
// per bank) and relocated by LISA row-buffer movement. Relocating an
// 8 kB row on every miss would swamp the bank, so VILLA caches only rows
// that miss twice, with the counts halved every 4096 misses; victims are
// chosen by LRU.
func LISAVillaConfig(geo dram.Geometry) FIGCacheConfig {
	cfg := DefaultFIGCacheConfig()
	cfg.SegmentBlocks = geo.BlocksPerRow()
	cfg.CacheRowsPerBank = geo.CacheRowsPerBank()
	cfg.Replacement = ReplLRU
	cfg.InsertThreshold = 2
	cfg.DecayMisses = 4096
	cfg.Substrate = SubstrateLISA
	return cfg
}

// Validate reports configuration errors.
func (c FIGCacheConfig) Validate(geo dram.Geometry) error {
	switch {
	case c.SegmentBlocks <= 0 || c.SegmentBlocks > geo.BlocksPerRow():
		return fmt.Errorf("core: segment blocks %d out of range (1..%d)", c.SegmentBlocks, geo.BlocksPerRow())
	case geo.BlocksPerRow()%c.SegmentBlocks != 0:
		return fmt.Errorf("core: segment blocks %d must divide blocks per row %d", c.SegmentBlocks, geo.BlocksPerRow())
	case geo.BlocksPerRow()/c.SegmentBlocks > maxSegsPerRow:
		return fmt.Errorf("core: segment blocks %d give %d segments per row, at most %d supported",
			c.SegmentBlocks, geo.BlocksPerRow()/c.SegmentBlocks, maxSegsPerRow)
	case c.CacheRowsPerBank <= 0:
		return fmt.Errorf("core: cache rows per bank must be positive, got %d", c.CacheRowsPerBank)
	case c.InsertThreshold <= 0:
		return fmt.Errorf("core: insert threshold must be positive, got %d", c.InsertThreshold)
	case c.DecayMisses < 0:
		return fmt.Errorf("core: decay misses must be non-negative, got %d", c.DecayMisses)
	case c.Replacement < 0 || c.Replacement >= numReplacementKinds:
		return fmt.Errorf("core: unknown replacement kind %d", int(c.Replacement))
	case c.BenefitBits <= 0 || c.BenefitBits > 8:
		return fmt.Errorf("core: benefit bits must be in [1,8], got %d", c.BenefitBits)
	case c.Substrate < 0 || c.Substrate >= numSubstrates:
		return fmt.Errorf("core: unknown relocation substrate %d", int(c.Substrate))
	case c.Substrate == SubstrateLISA && geo.FastSubarrays <= 0:
		return fmt.Errorf("core: LISA relocation needs fast subarrays to move rows to")
	}
	return nil
}

// FIGCache is the fine-grained in-DRAM cache of Section 5, covering every
// bank of one channel. It implements memctrl.CacheHook.
type FIGCache struct {
	cfg FIGCacheConfig
	geo dram.Geometry

	banks []*bankCache

	// Stats aggregated across banks.
	Insertions  int64
	Evictions   int64
	WriteBacks  int64 // dirty-segment write-back relocations
	ThrottledBy int64 // insertions declined by the threshold policy
}

type bankCache struct {
	fts  *FTS
	repl *replacer
	// missCounts tracks per-segment consecutive misses for threshold
	// insertion policies (threshold > 1). Cleared on insertion.
	missCounts map[segKey]int
	// decayEpoch counts the misses since missCounts was last halved
	// (DecayMisses > 0 only).
	decayEpoch int
}

// NewFIGCache builds a FIGCache over the channel geometry.
func NewFIGCache(cfg FIGCacheConfig, geo dram.Geometry) (*FIGCache, error) {
	if err := cfg.Validate(geo); err != nil {
		return nil, err
	}
	segsPerRow := geo.BlocksPerRow() / cfg.SegmentBlocks
	c := &FIGCache{cfg: cfg, geo: geo}
	nBanks := geo.Ranks * geo.BanksPerRank()
	for i := 0; i < nBanks; i++ {
		fts, err := NewFTS(cfg.CacheRowsPerBank*segsPerRow, segsPerRow, cfg.BenefitBits)
		if err != nil {
			return nil, err
		}
		c.banks = append(c.banks, &bankCache{
			fts:        fts,
			repl:       newReplacer(cfg.Replacement, cfg.Seed+uint64(i)),
			missCounts: make(map[segKey]int),
		})
	}
	return c, nil
}

// Config returns the cache configuration.
func (c *FIGCache) Config() FIGCacheConfig { return c.cfg }

// FTSForBank exposes a bank's tag store (stats, tests).
func (c *FIGCache) FTSForBank(id int) *FTS { return c.banks[id].fts }

// segOf returns the segment index of a block within its row.
func (c *FIGCache) segOf(block int) int { return block / c.cfg.SegmentBlocks }

// hops returns the LISA relocation hop count for a source row: the number
// of inter-subarray steps between the row's subarray and the nearest
// interleaved fast subarray. With F fast subarrays interleaved among S
// slow ones, each fast subarray serves a run of S/F slow subarrays placed
// around its position; a row in the middle of a run is 1 hop away, at the
// edges up to (S/F)/2+1 hops. This is the distance-dependence FIGARO
// eliminates (Section 3).
func (c *FIGCache) hops(srcRow int) int {
	sub := c.geo.SubarrayOfRow(srcRow)
	run := c.geo.SubarraysPerBank / c.geo.FastSubarrays // slow subarrays per fast subarray
	if run < 1 {
		run = 1
	}
	pos := sub % run
	// The fast subarray sits at the center of its run; hop count is the
	// distance to the center, minimum 1.
	center := run / 2
	d := pos - center
	if d < 0 {
		d = -d
	}
	return d + 1
}

// cacheLoc converts an FTS slot plus block offset into the DRAM location
// of the block inside the in-DRAM cache row space.
func (c *FIGCache) cacheLoc(orig dram.Location, fts *FTS, slot, blockInSeg int) dram.Location {
	return dram.Location{
		Rank:     orig.Rank,
		Group:    orig.Group,
		Bank:     orig.Bank,
		Row:      fts.RowOfSlot(slot),
		Block:    fts.SlotOffset(slot)*c.cfg.SegmentBlocks + blockInSeg,
		CacheRow: true,
	}
}

// Lookup implements memctrl.CacheHook: FTS lookup for every request.
func (c *FIGCache) Lookup(loc dram.Location, isWrite bool) (dram.Location, bool) {
	bank := c.banks[loc.BankID(c.geo)]
	seg := c.segOf(loc.Block)
	slot, hit := bank.fts.Lookup(loc.Row, seg, isWrite)
	if !hit {
		return dram.Location{}, false
	}
	return c.cacheLoc(loc, bank.fts, slot, loc.Block%c.cfg.SegmentBlocks), true
}

// ShouldInsert implements the insertion policy of Section 5.1/9.4:
// insert-any-miss when InsertThreshold is 1, otherwise insert after the
// segment accumulates InsertThreshold consecutive misses (halved every
// DecayMisses misses when set). Segments from the reserved subarray
// (FIGCache-Slow) are never inserted.
func (c *FIGCache) ShouldInsert(loc dram.Location) bool {
	if c.cfg.ReservedSubarray >= 0 && c.geo.SubarrayOfRow(loc.Row) == c.cfg.ReservedSubarray {
		return false
	}
	if c.cfg.InsertThreshold == 1 {
		return true
	}
	bank := c.banks[loc.BankID(c.geo)]
	if c.cfg.DecayMisses > 0 {
		bank.decayEpoch++
		if bank.decayEpoch >= c.cfg.DecayMisses {
			bank.decayEpoch = 0
			//fglint:deterministic per-entry halve-or-delete decay; entries are independent, order cannot matter
			for k, v := range bank.missCounts {
				if v <= 1 {
					delete(bank.missCounts, k)
				} else {
					bank.missCounts[k] = v / 2
				}
			}
		}
	}
	key := makeSegKey(loc.Row, c.segOf(loc.Block))
	bank.missCounts[key]++
	if bank.missCounts[key] >= c.cfg.InsertThreshold {
		delete(bank.missCounts, key)
		return true
	}
	c.ThrottledBy++
	return false
}

// Insert implements memctrl.CacheHook: reserve a slot (evicting per the
// replacement policy if full) and return the relocation plan. The source
// row is open when Insert is called, so the insertion relocation skips
// the first ACTIVATE (Section 8.1); a dirty victim adds a standalone
// write-back relocation to the plan cost. The tag is installed by Commit
// when the controller executes the relocation, so requests arriving while
// the source row remains open keep hitting it.
func (c *FIGCache) Insert(ch *dram.Channel, loc dram.Location, now int64) (memctrl.RelocPlan, bool) {
	bank := c.banks[loc.BankID(c.geo)]
	seg := c.segOf(loc.Block)
	if bank.fts.Contains(loc.Row, seg) {
		return memctrl.RelocPlan{}, false // already cached or already being inserted
	}

	plan := memctrl.RelocPlan{Loc: loc}
	slot, free := bank.fts.FreeSlot()
	if !free {
		slot = bank.repl.victim(bank.fts)
		if slot < 0 {
			return memctrl.RelocPlan{}, false // every slot is reserved by in-flight work
		}
		row, _, dirty, valid := bank.fts.Evict(slot)
		if valid {
			c.Evictions++
			if dirty {
				c.addReloc(&plan, ch, row, false)
				c.WriteBacks++
			}
		}
	}
	c.addReloc(&plan, ch, loc.Row, true)
	bank.fts.Reserve(slot, loc.Row, seg)
	c.Insertions++
	return plan, true
}

// addReloc adds one segment relocation between srcRow and the cache to
// p: the insertion itself when srcOpen (the miss left the source row
// open), otherwise a dirty victim's standalone write-back.
func (c *FIGCache) addReloc(p *memctrl.RelocPlan, ch *dram.Channel, srcRow int, srcOpen bool) {
	n := c.cfg.SegmentBlocks
	switch c.cfg.Substrate {
	case SubstrateFIGARO:
		// Insertion: n RELOC + ACT(cache row) + PRE. Write-back:
		// ACT(cache row) + n RELOC + ACT(source row) + PRE.
		if srcOpen {
			p.Cost += ch.RelocCost(n, true)
		} else {
			p.Cost += ch.RelocStandaloneCost(n, true, false)
		}
		p.Blocks += n
	case SubstrateRowClonePSM:
		// The two-hop copy over the global data bus blocks the channel.
		p.Cost += ch.PSMCost(n, srcOpen)
		p.Blocks += n
		p.ChannelWide = true
	case SubstrateLISA:
		// Whole-row RBM, paid over the source row's own hop distance.
		h := c.hops(srcRow)
		p.Cost += ch.RBMCost(h, srcOpen)
		p.Hops += h
		p.IsLISA = true
	case SubstrateIdeal:
		// FIGARO's RELOCs, counted but free.
		p.Blocks += n
	}
}

// Commit implements memctrl.CacheHook: install the tag of the segment a
// plan Insert returned into the slot it reserved. Called by the
// controller when the relocation executes.
func (c *FIGCache) Commit(p memctrl.RelocPlan) {
	c.banks[p.Loc.BankID(c.geo)].fts.Commit(p.Loc.Row, c.segOf(p.Loc.Block))
}

// HitRate returns the aggregate in-DRAM cache hit rate.
func (c *FIGCache) HitRate() float64 {
	var hits, misses int64
	for _, b := range c.banks {
		hits += b.fts.Hits
		misses += b.fts.Misses
	}
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// Occupancy returns the fraction of cache slots currently valid,
// aggregated over all banks.
func (c *FIGCache) Occupancy() float64 {
	var valid, total int
	for _, b := range c.banks {
		valid += b.fts.ValidSlots()
		total += b.fts.Slots()
	}
	if total == 0 {
		return 0
	}
	return float64(valid) / float64(total)
}

var _ memctrl.CacheHook = (*FIGCache)(nil)
