package core

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/fgss"
)

// TestRowIndexBasics checks the FTS's per-row benefit sums under each
// mutation: a hit adds one (until the counter saturates), and an
// eviction or a reinstall removes the slot's contribution.
func TestRowIndexBasics(t *testing.T) {
	f, err := NewFTS(32, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	f.Install(0, 10, 0, false) // slot 0 -> row 0
	f.Install(9, 11, 1, false) // slot 9 -> row 1
	f.Lookup(10, 0, false)
	f.Lookup(11, 1, true)
	f.Lookup(11, 1, false)
	if f.rowSums[0] != 1 || f.rowSums[1] != 2 {
		t.Errorf("sums = %d,%d, want 1,2", f.rowSums[0], f.rowSums[1])
	}
	f.Evict(9)
	if f.rowSums[1] != 0 {
		t.Errorf("eviction did not clear row 1: sum=%d", f.rowSums[1])
	}
	f.Install(0, 12, 0, false)
	if f.rowSums[0] != 0 {
		t.Errorf("reinstall did not clear row 0: sum=%d", f.rowSums[0])
	}
}

func TestRowIndexRejectsBadDims(t *testing.T) {
	if _, err := NewFTS(0, 8, 5); err == nil {
		t.Error("accepted zero slots")
	}
	if _, err := NewFTS(65*4, 65, 5); err == nil {
		t.Error("accepted >64 segments per row")
	}
}

func TestRowIndexMinRow(t *testing.T) {
	f, _ := NewFTS(12, 4, 5)
	hit := func(slot, row, n int) {
		f.Install(slot, row, 0, false)
		for i := 0; i < n; i++ {
			f.Lookup(row, 0, false)
		}
	}
	hit(0, 100, 5) // row 0 sum 5
	hit(4, 101, 2) // row 1 sum 2
	hit(8, 102, 9) // row 2 sum 9
	if got := f.minBenefitRow(func(int) bool { return true }); got != 1 {
		t.Errorf("minBenefitRow = %d, want 1", got)
	}
	if got := f.minBenefitRow(func(r int) bool { return r != 1 }); got != 0 {
		t.Errorf("minBenefitRow excluding 1 = %d, want 0", got)
	}
	if got := f.minBenefitRow(func(int) bool { return false }); got != -1 {
		t.Errorf("minBenefitRow with nothing eligible = %d, want -1", got)
	}
}

// TestRestoreRebuildsRowSums checks that a restored FTS re-derives its
// row benefit sums from the restored entries.
func TestRestoreRebuildsRowSums(t *testing.T) {
	f, _ := NewFTS(16, 8, 5)
	f.Install(0, 10, 0, true)
	f.Install(9, 11, 0, false)
	f.Lookup(11, 0, false)
	f.Lookup(10, 0, false)
	f.Lookup(10, 0, false)

	var fp [32]byte
	var buf bytes.Buffer
	w := fgss.NewWriter(&buf, 1, fp)
	w.Begin(1)
	f.Snapshot(w)
	w.End()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	g, _ := NewFTS(16, 8, 5)
	g.Install(1, 12, 0, false)
	g.Lookup(12, 0, false)
	r, err := fgss.NewReader(&buf, 1, fp)
	if err != nil {
		t.Fatal(err)
	}
	r.Section(1)
	g.Restore(r)
	r.EndSection()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if g.rowSums[0] != 2 || g.rowSums[1] != 1 {
		t.Errorf("restored sums = %d,%d, want 2,1", g.rowSums[0], g.rowSums[1])
	}
}

// Property: under any interleaving of FTS operations, the incremental
// row sums equal the naive per-row scans (the equivalence that makes
// the Dirty-Block-Index optimization legal).
func TestPropertyRowIndexMatchesNaiveSums(t *testing.T) {
	f := func(ops []uint16) bool {
		fts, err := NewFTS(32, 8, 5)
		if err != nil {
			return false
		}
		for _, op := range ops {
			slot := int(op) % 32
			row := int(op>>5) % 64
			switch op % 3 {
			case 0:
				fts.Install(slot, row, int(op)%8, op%2 == 0)
			case 1:
				fts.Lookup(row, int(op)%8, op%5 == 0)
			case 2:
				fts.Evict(slot)
			}
			// Invariant: incremental sums match naive recomputation.
			for r := 0; r < fts.CacheRows(); r++ {
				if fts.rowSums[r] != fts.RowBenefit(r) {
					t.Logf("row %d: incremental %d vs naive %d", r, fts.rowSums[r], fts.RowBenefit(r))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
