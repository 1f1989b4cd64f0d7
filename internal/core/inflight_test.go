package core

import (
	"bytes"
	"testing"

	"repro/internal/dram"
	"repro/internal/fgss"
	"repro/internal/memctrl"
)

// insertPending plans an insertion without committing it, as the
// controller does when the source row stays open.
func insertPending(t *testing.T, fc *FIGCache, ch *dram.Channel, loc dram.Location) memctrl.RelocPlan {
	t.Helper()
	plan, ok := fc.Insert(ch, loc, 0)
	if !ok {
		t.Fatalf("insert of row %d refused", loc.Row)
	}
	return plan
}

// TestInFlightInsertion walks a segment through the window between
// Insert and Commit under every replacement policy: the reserved
// segment misses, a second insertion of it is refused, filling the rest
// of the cache never evicts its slot, and Commit makes it hit.
func TestInFlightInsertion(t *testing.T) {
	for k := ReplacementKind(0); k < numReplacementKinds; k++ {
		t.Run(k.String(), func(t *testing.T) {
			fc, ch := newTestFIGCache(t, func(c *FIGCacheConfig) {
				c.CacheRowsPerBank = 1 // 8 slots
				c.Replacement = k
			})
			for i := 0; i < 7; i++ {
				insertNow(fc, ch, dram.Location{Row: 100 + i})
			}
			loc := dram.Location{Row: 200}
			pending := insertPending(t, fc, ch, loc)
			if _, hit := fc.Lookup(loc, false); hit {
				t.Error("reserved segment hit before Commit")
			}
			if _, ok := fc.Insert(ch, loc, 0); ok {
				t.Error("second insertion of an in-flight segment returned a plan")
			}
			// Every further insertion must evict a valid segment, never
			// the reserved slot.
			for i := 0; i < 14; i++ {
				insertNow(fc, ch, dram.Location{Row: 300 + i})
			}
			fc.Commit(pending)
			if _, hit := fc.Lookup(loc, false); !hit {
				t.Error("committed segment missed")
			}
			// Eight segments fill the cache, and each missing one was
			// counted as an eviction: a reservation handed to another
			// segment would have lost one silently.
			hits := 0
			for i := 0; i < 14; i++ {
				for _, row := range []int{100 + i, 300 + i} {
					if _, hit := fc.Lookup(dram.Location{Row: row}, false); hit {
						hits++
					}
				}
			}
			if valid := fc.FTSForBank(0).ValidSlots(); hits != 7 || valid != 8 || fc.Insertions-fc.Evictions != 8 {
				t.Errorf("hits = %d, valid slots = %d, insertions - evictions = %d; want 7, 8, 8",
					hits, valid, fc.Insertions-fc.Evictions)
			}
		})
	}
}

// TestInsertRefusedWhenAllReserved fills every slot of a bank with
// in-flight insertions: no policy may pick a victim, so the next
// insertion is refused, and committing the plans makes all of them hit.
func TestInsertRefusedWhenAllReserved(t *testing.T) {
	for k := ReplacementKind(0); k < numReplacementKinds; k++ {
		t.Run(k.String(), func(t *testing.T) {
			fc, ch := newTestFIGCache(t, func(c *FIGCacheConfig) {
				c.CacheRowsPerBank = 1
				c.Replacement = k
			})
			var plans []memctrl.RelocPlan
			for i := 0; i < 8; i++ {
				plans = append(plans, insertPending(t, fc, ch, dram.Location{Row: 100 + i}))
			}
			if _, ok := fc.Insert(ch, dram.Location{Row: 500}, 0); ok {
				t.Error("insertion into a fully reserved bank returned a plan")
			}
			if fc.Evictions != 0 {
				t.Errorf("Evictions = %d, want 0", fc.Evictions)
			}
			for _, p := range plans {
				fc.Commit(p)
			}
			for i := 0; i < 8; i++ {
				if _, hit := fc.Lookup(dram.Location{Row: 100 + i}, false); !hit {
					t.Errorf("row %d missed after Commit", 100+i)
				}
			}
		})
	}
}

// snapshotFIGCache serializes a cache into one FGSS section.
func snapshotFIGCache(t *testing.T, fc *FIGCache) []byte {
	t.Helper()
	var fp [32]byte
	var buf bytes.Buffer
	w := fgss.NewWriter(&buf, 1, fp)
	w.Begin(1)
	fc.Snapshot(w)
	w.End()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func restoreFIGCache(t *testing.T, fc *FIGCache, img []byte) {
	t.Helper()
	var fp [32]byte
	r, err := fgss.NewReader(bytes.NewReader(img), 1, fp)
	if err != nil {
		t.Fatal(err)
	}
	r.Section(1)
	fc.Restore(r)
	r.EndSection()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotWhileReserved checkpoints a cache with an insertion in
// flight. The restored cache must keep the reservation: the segment
// misses, a duplicate insertion is refused, and the pending plan
// commits into the same slot, so both caches continue identically.
func TestSnapshotWhileReserved(t *testing.T) {
	fc, ch := newTestFIGCache(t, func(c *FIGCacheConfig) { c.CacheRowsPerBank = 1 })
	for i := 0; i < 8; i++ {
		insertNow(fc, ch, dram.Location{Row: 100 + i})
	}
	fc.Lookup(dram.Location{Row: 103}, true)
	loc := dram.Location{Row: 200, Block: 20}
	pending := insertPending(t, fc, ch, loc)
	img := snapshotFIGCache(t, fc)

	restored, _ := newTestFIGCache(t, func(c *FIGCacheConfig) { c.CacheRowsPerBank = 1 })
	restoreFIGCache(t, restored, img)
	if got := snapshotFIGCache(t, restored); !bytes.Equal(got, img) {
		t.Fatal("restored cache does not snapshot to the same bytes")
	}
	for _, c := range []*FIGCache{fc, restored} {
		if _, hit := c.Lookup(loc, false); hit {
			t.Error("reserved segment hit before Commit")
		}
		if _, ok := c.Insert(ch, loc, 0); ok {
			t.Error("duplicate insertion of the in-flight segment returned a plan")
		}
		insertNow(c, ch, dram.Location{Row: 300})
		c.Commit(pending)
		if _, hit := c.Lookup(loc, false); !hit {
			t.Error("committed segment missed")
		}
	}
	if !bytes.Equal(snapshotFIGCache(t, fc), snapshotFIGCache(t, restored)) {
		t.Error("original and restored caches diverge after the same operations")
	}
}
