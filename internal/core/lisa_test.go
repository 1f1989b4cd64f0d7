package core

import (
	"testing"

	"repro/internal/dram"
)

// lisaGeometry is the LISA-VILLA channel: 16 interleaved fast subarrays
// of 32 rows per bank.
func lisaGeometry() dram.Geometry {
	geo := dram.Default()
	geo.FastSubarrays = 16
	return geo
}

func newTestLISA(t *testing.T, mutate func(*FIGCacheConfig)) (*FIGCache, *dram.Channel) {
	t.Helper()
	geo := lisaGeometry()
	cfg := LISAVillaConfig(geo)
	if mutate != nil {
		mutate(&cfg)
	}
	l, err := NewFIGCache(cfg, geo)
	if err != nil {
		t.Fatal(err)
	}
	return l, newTestChannel(t, 16)
}

func TestLISAConfigValidate(t *testing.T) {
	geo := lisaGeometry()
	cfg := LISAVillaConfig(geo)
	if err := cfg.Validate(geo); err != nil {
		t.Fatalf("LISA-VILLA config invalid: %v", err)
	}
	if cfg.CacheRowsPerBank != 512 || geo.BlocksPerRow()/cfg.SegmentBlocks != 1 {
		t.Errorf("LISA-VILLA caches %d rows of %d segments, want 512 whole rows",
			cfg.CacheRowsPerBank, geo.BlocksPerRow()/cfg.SegmentBlocks)
	}
	bad := cfg
	bad.CacheRowsPerBank = 0
	if err := bad.Validate(geo); err == nil {
		t.Error("accepted zero cache rows")
	}
	bad = cfg
	bad.InsertThreshold = 0
	if err := bad.Validate(geo); err == nil {
		t.Error("accepted zero hot threshold")
	}
}

func TestLISAHotThresholdInsertion(t *testing.T) {
	l, _ := newTestLISA(t, nil)
	loc := dram.Location{Row: 77, Block: 0}
	// The threshold is 2: the first miss does not insert, the second
	// does, whichever blocks of the row miss.
	if l.ShouldInsert(loc) {
		t.Fatal("inserted on first miss with threshold 2")
	}
	loc.Block = 90
	if !l.ShouldInsert(loc) {
		t.Fatal("did not insert on second miss to the row")
	}
}

func TestLISARowGranularityCaching(t *testing.T) {
	l, ch := newTestLISA(t, nil)
	loc := dram.Location{Row: 77, Block: 3}
	plan, ok := insertNow(l, ch, loc)
	if !ok {
		t.Fatal("Insert returned nil")
	}
	if !plan.IsLISA || plan.Hops < 1 || plan.Blocks != 0 || plan.ChannelWide {
		t.Errorf("plan = %+v, want a bank-local LISA move with >= 1 hop and no RELOC blocks", plan)
	}
	if want := ch.RBMCost(l.hops(77), true); plan.Cost != want {
		t.Errorf("plan cost = %d, want RBM over %d hops = %d", plan.Cost, l.hops(77), want)
	}
	// Every block of the row hits (row granularity).
	for _, blk := range []int{0, 64, 127} {
		redirect, hit := l.Lookup(dram.Location{Row: 77, Block: blk}, false)
		if !hit {
			t.Fatalf("block %d missed after whole-row insertion", blk)
		}
		if !redirect.CacheRow || redirect.Block != blk {
			t.Errorf("block %d redirect = %v", blk, redirect)
		}
	}
	// Other rows still miss.
	if _, hit := l.Lookup(dram.Location{Row: 78, Block: 0}, false); hit {
		t.Error("uncached row hit")
	}
}

func TestLISAHopsDistanceDependent(t *testing.T) {
	l, _ := newTestLISA(t, nil)
	// 64 slow subarrays, 16 fast: runs of 4, fast at center (offset 2).
	// Row in subarray offset 2 of its run: 1 hop; offset 0: 3 hops.
	rowsPer := dram.Default().RowsPerSubarray
	center := l.hops(2 * rowsPer) // subarray 2, offset 2 -> distance 0 -> 1 hop
	edge := l.hops(0)             // subarray 0, offset 0 -> distance 2 -> 3 hops
	if center != 1 {
		t.Errorf("center hops = %d, want 1", center)
	}
	if edge <= center {
		t.Errorf("edge hops (%d) not greater than center hops (%d)", edge, center)
	}
}

func TestLISAEvictionLRUAndWriteBack(t *testing.T) {
	l, ch := newTestLISA(t, func(c *FIGCacheConfig) { c.CacheRowsPerBank = 2 })
	insertNow(l, ch, dram.Location{Row: 1})
	insertNow(l, ch, dram.Location{Row: 2})
	// Touch row 1 so row 2 is LRU; dirty row 2 with a write hit.
	l.Lookup(dram.Location{Row: 2, Block: 0}, true)
	l.Lookup(dram.Location{Row: 1, Block: 0}, false)
	// Third insertion evicts row 2 (LRU) and pays its write-back over the
	// victim's own hop distance.
	plan, ok := insertNow(l, ch, dram.Location{Row: 3})
	if !ok {
		t.Fatal("insert returned nil")
	}
	if l.Evictions != 1 || l.WriteBacks != 1 {
		t.Errorf("evictions=%d writebacks=%d, want 1/1", l.Evictions, l.WriteBacks)
	}
	if want := l.hops(2) + l.hops(3); plan.Hops != want {
		t.Errorf("plan hops = %d, want write-back + insertion = %d", plan.Hops, want)
	}
	if want := ch.RBMCost(l.hops(2), false) + ch.RBMCost(l.hops(3), true); plan.Cost != want {
		t.Errorf("plan cost = %d, want %d", plan.Cost, want)
	}
	if _, hit := l.Lookup(dram.Location{Row: 2, Block: 0}, false); hit {
		t.Error("evicted row still hits")
	}
	if _, hit := l.Lookup(dram.Location{Row: 1, Block: 0}, false); !hit {
		t.Error("MRU row was evicted")
	}
}

func TestLISAHotCounterDecay(t *testing.T) {
	l, _ := newTestLISA(t, func(c *FIGCacheConfig) {
		c.DecayMisses = 4
		c.InsertThreshold = 3
	})
	loc := dram.Location{Row: 9}
	l.ShouldInsert(loc) // count 1
	l.ShouldInsert(loc) // count 2
	// Fill the epoch with misses to other rows to trigger decay.
	l.ShouldInsert(dram.Location{Row: 100})
	l.ShouldInsert(dram.Location{Row: 101}) // decay fires: count 2 -> 1
	// Two more misses needed to reach the threshold again.
	if l.ShouldInsert(loc) {
		t.Error("row considered hot right after decay")
	}
	if !l.ShouldInsert(loc) {
		t.Error("row not hot after re-accumulating misses")
	}
}

// TestNoDecayKeepsMissCounts pins the default FIGCache threshold policy:
// without DecayMisses, old misses keep counting toward the threshold.
func TestNoDecayKeepsMissCounts(t *testing.T) {
	l, _ := newTestLISA(t, func(c *FIGCacheConfig) {
		c.DecayMisses = 0
		c.InsertThreshold = 3
	})
	loc := dram.Location{Row: 9}
	l.ShouldInsert(loc)
	l.ShouldInsert(loc)
	for row := 100; row < 200; row++ {
		l.ShouldInsert(dram.Location{Row: row})
	}
	if !l.ShouldInsert(loc) {
		t.Error("miss counts decayed with DecayMisses = 0")
	}
}

func TestLISADoubleInsertNoop(t *testing.T) {
	l, ch := newTestLISA(t, nil)
	if _, ok := insertNow(l, ch, dram.Location{Row: 5}); !ok {
		t.Fatal("first insert failed")
	}
	if _, ok := insertNow(l, ch, dram.Location{Row: 5, Block: 100}); ok {
		t.Error("duplicate insert of the same row returned a plan")
	}
}

func TestLISAHitRate(t *testing.T) {
	l, ch := newTestLISA(t, nil)
	l.Lookup(dram.Location{Row: 4}, false) // miss
	insertNow(l, ch, dram.Location{Row: 4})
	l.Lookup(dram.Location{Row: 4}, false) // hit
	if got := l.HitRate(); got != 0.5 {
		t.Errorf("HitRate = %g, want 0.5", got)
	}
}
