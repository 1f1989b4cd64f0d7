package core

import "fmt"

// segKey uniquely identifies a row segment within one bank: the source
// row and the segment index within that row. It is the "tag (original
// address)" field of an FTS entry (Figure 6).
type segKey uint64

func makeSegKey(row, seg int) segKey { return segKey(uint64(row)<<8 | uint64(seg)) }

func (k segKey) row() int { return int(k >> 8) }
func (k segKey) seg() int { return int(k & 0xff) }

// ftsEntry is one entry of the FIGCache tag store: the tag of the cached
// segment, valid and dirty bits, and the saturating benefit counter used
// by the replacement policy (Section 5.1). A slot is free, reserved or
// valid: a reserved slot holds the tag of an in-flight insertion (planned,
// not yet executed by the controller), so a duplicate insertion finds it,
// but lookups miss it and replacement never picks it until it commits.
type ftsEntry struct {
	key      segKey
	valid    bool
	reserved bool
	dirty    bool
	benefit  uint8
	lastUse  int64 // logical timestamp for the LRU comparison policy
}

// FTS is the FIGCache tag store for one bank: a fully-associative array
// with one entry per in-DRAM cache slot, where each slot holds one row
// segment. The paper's configuration has 512 slots per bank (64 cache
// rows x 8 segments per row).
type FTS struct {
	entries    []ftsEntry
	index      map[segKey]int // valid or reserved tag -> slot
	segsPerRow int            // cache slots per cache row
	benefitMax uint8          // saturation value (5-bit counter -> 31)
	clock      int64

	// rowSums holds each cache row's cumulative benefit, kept exact under
	// every mutation (hit, install, evict). This is the Dirty-Block-Index
	// style structure of Section 5.1 footnote 2: the RowBenefit policy
	// finds its victim row by scanning cache rows (64 per bank) instead
	// of slots (512 per bank).
	rowSums []int

	// Stats.
	Hits, Misses int64
}

// maxSegsPerRow bounds the segments per cache row: the RowBenefit
// policy marks a draining row's segments in a 64-bit vector.
const maxSegsPerRow = 64

// NewFTS builds a tag store with slots entries, segsPerRow slots per cache
// row, and a benefit counter of benefitBits bits.
func NewFTS(slots, segsPerRow, benefitBits int) (*FTS, error) {
	if slots <= 0 || segsPerRow <= 0 || slots%segsPerRow != 0 {
		return nil, fmt.Errorf("core: slots (%d) must be a positive multiple of segsPerRow (%d)", slots, segsPerRow)
	}
	if segsPerRow > maxSegsPerRow {
		return nil, fmt.Errorf("core: at most %d segments per cache row, got %d", maxSegsPerRow, segsPerRow)
	}
	if benefitBits <= 0 || benefitBits > 8 {
		return nil, fmt.Errorf("core: benefitBits must be in [1,8], got %d", benefitBits)
	}
	return &FTS{
		entries:    make([]ftsEntry, slots),
		index:      make(map[segKey]int, slots),
		segsPerRow: segsPerRow,
		benefitMax: uint8(1<<benefitBits - 1),
		rowSums:    make([]int, slots/segsPerRow),
	}, nil
}

// Slots returns the number of cache slots the FTS tracks.
func (f *FTS) Slots() int { return len(f.entries) }

// CacheRows returns the number of cache rows covered by the FTS.
func (f *FTS) CacheRows() int { return len(f.entries) / f.segsPerRow }

// SegsPerRow returns the number of segments per cache row.
func (f *FTS) SegsPerRow() int { return f.segsPerRow }

// Lookup checks whether the segment (row, seg) is cached. On a hit it
// increments the benefit counter (saturating), optionally sets the dirty
// bit, and returns the slot index.
func (f *FTS) Lookup(row, seg int, isWrite bool) (slot int, hit bool) {
	f.clock++
	i, ok := f.index[makeSegKey(row, seg)]
	if !ok || !f.entries[i].valid {
		f.Misses++
		return 0, false
	}
	e := &f.entries[i]
	if e.benefit < f.benefitMax {
		e.benefit++
		f.rowSums[f.RowOfSlot(i)]++
	}
	if isWrite {
		e.dirty = true
	}
	e.lastUse = f.clock
	f.Hits++
	return i, true
}

// Contains reports whether the FTS holds a segment's tag, cached or
// reserved for an in-flight insertion, without touching metadata.
func (f *FTS) Contains(row, seg int) bool {
	_, ok := f.index[makeSegKey(row, seg)]
	return ok
}

// FreeSlot returns a free (neither valid nor reserved) slot index, or
// (0, false) if the cache is full. Slots are scanned in order, so
// consecutive insertions pack into the same cache row (the co-location
// Section 5.1 relies on).
func (f *FTS) FreeSlot() (int, bool) {
	for i, e := range f.entries {
		if !e.valid && !e.reserved {
			return i, true
		}
	}
	return 0, false
}

// Reserve claims a free slot for the in-flight insertion of a segment:
// the slot holds its tag, so Contains finds it, but Lookup misses it and
// replacement never picks it until Commit installs it.
func (f *FTS) Reserve(slot, row, seg int) {
	key := makeSegKey(row, seg)
	f.entries[slot] = ftsEntry{key: key, reserved: true}
	f.index[key] = slot
}

// Commit installs a segment, clean, in the slot Reserve claimed for it;
// a segment with no reserved slot is left alone.
func (f *FTS) Commit(row, seg int) {
	if slot, ok := f.index[makeSegKey(row, seg)]; ok && f.entries[slot].reserved {
		f.Install(slot, row, seg, false)
	}
}

// Install fills a free slot, or the slot reserved for the segment, with
// the segment, resetting its metadata. A valid entry in the slot is
// replaced.
func (f *FTS) Install(slot, row, seg int, dirty bool) {
	f.clock++
	e := &f.entries[slot]
	if e.valid {
		delete(f.index, e.key)
		f.rowSums[f.RowOfSlot(slot)] -= int(e.benefit)
	}
	key := makeSegKey(row, seg)
	*e = ftsEntry{key: key, valid: true, dirty: dirty, benefit: 0, lastUse: f.clock}
	f.index[key] = slot
}

// Evict invalidates a slot and returns its tag and dirty bit, so the
// caller can schedule a write-back relocation for dirty victims.
func (f *FTS) Evict(slot int) (row, seg int, dirty, wasValid bool) {
	e := &f.entries[slot]
	if !e.valid {
		return 0, 0, false, false
	}
	delete(f.index, e.key)
	row, seg, dirty = e.key.row(), e.key.seg(), e.dirty
	f.rowSums[f.RowOfSlot(slot)] -= int(e.benefit)
	*e = ftsEntry{}
	return row, seg, dirty, true
}

// RowOfSlot returns the cache row holding a slot.
func (f *FTS) RowOfSlot(slot int) int { return slot / f.segsPerRow }

// SlotOffset returns the segment position of a slot within its cache row.
func (f *FTS) SlotOffset(slot int) int { return slot % f.segsPerRow }

// minBenefitRow returns the cache row with the smallest cumulative
// benefit among rows where eligible returns true (the lowest index on a
// tie), or -1 if none qualifies.
func (f *FTS) minBenefitRow(eligible func(row int) bool) int {
	best, bestSum := -1, int(^uint(0)>>1)
	for row, sum := range f.rowSums {
		if sum < bestSum && eligible(row) {
			best, bestSum = row, sum
		}
	}
	return best
}

// RowBenefit recomputes the cumulative benefit of all valid segments in
// a cache row by scanning its slots: the naive reference for the
// incrementally kept sums minBenefitRow reads.
func (f *FTS) RowBenefit(cacheRow int) int {
	sum := 0
	for i := cacheRow * f.segsPerRow; i < (cacheRow+1)*f.segsPerRow; i++ {
		if f.entries[i].valid {
			sum += int(f.entries[i].benefit)
		}
	}
	return sum
}

// ValidSlots returns the number of valid entries.
func (f *FTS) ValidSlots() int {
	n := 0
	for _, e := range f.entries {
		if e.valid {
			n++
		}
	}
	return n
}

// HitRate returns the fraction of lookups that hit.
func (f *FTS) HitRate() float64 {
	total := f.Hits + f.Misses
	if total == 0 {
		return 0
	}
	return float64(f.Hits) / float64(total)
}

// entry returns a copy of a slot's entry (tests and policies).
func (f *FTS) entry(slot int) ftsEntry { return f.entries[slot] }
