package memctrl

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/ev"
)

// planCache is a CacheHook whose Commit installs the planned segment,
// for testing the deferred-relocation engine.
type planCache struct {
	cost      int64
	committed int
	inflight  map[uint64]bool
	cached    map[uint64]dram.Location
}

func newPlanCache(cost int64) *planCache {
	return &planCache{cost: cost, inflight: map[uint64]bool{}, cached: map[uint64]dram.Location{}}
}

func (p *planCache) key(loc dram.Location) uint64 {
	return uint64(loc.BankID(dram.Default()))<<32 | uint64(loc.Row)
}

func (p *planCache) Lookup(loc dram.Location, isWrite bool) (dram.Location, bool) {
	redirect, ok := p.cached[p.key(loc)]
	return redirect, ok
}

func (p *planCache) ShouldInsert(loc dram.Location) bool { return true }

func (p *planCache) Insert(ch *dram.Channel, loc dram.Location, now int64) (RelocPlan, bool) {
	k := p.key(loc)
	if p.inflight[k] {
		return RelocPlan{}, false
	}
	p.inflight[k] = true
	return RelocPlan{Loc: loc, Cost: p.cost, Blocks: 16}, true
}

func (p *planCache) Commit(plan RelocPlan) {
	loc := plan.Loc
	k := p.key(loc)
	delete(p.inflight, k)
	p.committed++
	p.cached[k] = dram.Location{
		Rank: loc.Rank, Group: loc.Group, Bank: loc.Bank,
		Row: 0, Block: loc.Block, CacheRow: true,
	}
}

func TestDeferredRelocCommitsAtRowClose(t *testing.T) {
	pc := newPlanCache(40)
	c := newTestController(t, pc)
	var done int
	on := c.on(func(int64) { done++ })
	// Miss to row 1 plans an insertion; it must not commit while row 1
	// keeps serving requests.
	c.Enqueue(&Request{Loc: dram.Location{Row: 1, Block: 0}, OnComplete: on}, 0)
	runUntil(c, 200, func() bool { return done == 1 })
	if pc.committed != 0 {
		t.Fatalf("committed %d before row close", pc.committed)
	}
	// A row hit to the same row is served from the still-open source row
	// (no FTS entry exists yet, so no redirect happens).
	c.Enqueue(&Request{Loc: dram.Location{Row: 1, Block: 5}, OnComplete: on}, 60)
	runUntil(c, 400, func() bool { return done == 2 })
	if pc.committed != 0 {
		t.Fatalf("committed %d while the source row was open", pc.committed)
	}
	// A conflicting request forces the row closed: the relocation executes
	// and commits there.
	c.Enqueue(&Request{Loc: dram.Location{Row: 9, Block: 0}, OnComplete: on}, 400)
	runUntil(c, 1200, func() bool { return done == 3 })
	if pc.committed == 0 {
		t.Fatal("relocation never committed at row close")
	}
	// Subsequent access to row 1 now hits the cache.
	if _, hit := pc.Lookup(dram.Location{Row: 1, Block: 0}, false); !hit {
		t.Error("segment not cached after commit")
	}
}

func TestIdleFlushWaitsForQuietWindow(t *testing.T) {
	pc := newPlanCache(40)
	c := newTestController(t, pc)
	quiet := c.cfg.IdleFlushAfter
	var colAt, flushAt int64
	// One continuous clock: the insertion is planned when the miss's
	// column command issues; the idle flush may run only after the bank
	// has been quiet for the configured window.
	for now := int64(0); now < quiet*6; now++ {
		if now == 0 {
			c.Enqueue(&Request{Loc: dram.Location{Row: 1, Block: 0},
				OnComplete: c.on(func(at int64) { colAt = at })}, 0)
		}
		c.Tick(now, func(at int64, tok ev.Token) { c.dispatch(tok, at) })
		if pc.committed > 0 && flushAt == 0 {
			flushAt = now
		}
	}
	if pc.committed != 1 {
		t.Fatalf("idle flush never fired (committed=%d)", pc.committed)
	}
	if colAt == 0 {
		t.Fatal("read never completed")
	}
	// The flush must respect the quiet window measured from the column
	// access (colAt is the data-end time; the command issued CL+BL
	// earlier, so allow that much slack).
	tm := c.Channel().Slow
	issueAt := colAt - int64(tm.CL+tm.BL)
	if flushAt < issueAt+quiet {
		t.Errorf("idle flush at %d, only %d cycles after the column access at %d (window %d)",
			flushAt, flushAt-issueAt, issueAt, quiet)
	}
	// The bank must be left precharged.
	if row, _ := c.Channel().Bank(dram.Location{}).Open(); row != -1 {
		t.Error("bank open after relocation flush")
	}
}

func TestImmediateRelocExecutesAtMiss(t *testing.T) {
	pc := newPlanCache(40)
	geo := dram.Default()
	slow := dram.DDR4()
	ch, err := dram.NewChannel(geo, slow, slow.Fast(dram.PaperFastScale()), false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.ImmediateReloc = true
	c := &testCtrl{Controller: NewController(0, cfg, ch, pc)}
	done := false
	c.Enqueue(&Request{Loc: dram.Location{Row: 1, Block: 0}, OnComplete: c.on(func(int64) { done = true })}, 0)
	runUntil(c, 200, func() bool { return done && pc.committed > 0 })
	if pc.committed != 1 {
		t.Fatalf("immediate mode committed %d at miss time, want 1", pc.committed)
	}
	if row, _ := ch.Bank(dram.Location{}).Open(); row != -1 {
		t.Error("bank open after immediate relocation")
	}
}

func TestRefreshFlushesPendingRelocs(t *testing.T) {
	pc := newPlanCache(40)
	c := newTestController(t, pc)
	done := false
	c.Enqueue(&Request{Loc: dram.Location{Row: 1, Block: 0}, OnComplete: c.on(func(int64) { done = true })}, 0)
	// Serve the miss just before the refresh deadline, then keep the bank
	// busy enough that only the refresh path can close it.
	refi := int64(c.Channel().Slow.REFI)
	runUntil(c, 100, func() bool { return done })
	if !done {
		t.Fatal("read never completed")
	}
	// Run across the refresh deadline: the refresh precharge path must
	// execute the pending relocation (or the idle flush gets it first;
	// either way it must be done before REF issues).
	runUntil(c, refi+int64(c.Channel().Slow.RFC)+200, func() bool {
		return c.Channel().NumREF > 0
	})
	if c.Channel().NumREF == 0 {
		t.Fatal("refresh never issued")
	}
	if pc.committed != 1 {
		t.Errorf("pending relocation not executed by refresh time (committed=%d)", pc.committed)
	}
}

func TestRelocPlanAccountingInStats(t *testing.T) {
	pc := newPlanCache(25)
	c := newTestController(t, pc)
	c.Enqueue(&Request{Loc: dram.Location{Row: 1, Block: 0}}, 0)
	quiet := c.cfg.IdleFlushAfter
	runUntil(c, 400+quiet*4, func() bool { return pc.committed == 1 })
	s := c.Channel().CollectStats()
	if s.RELOC != 16 {
		t.Errorf("RELOC columns = %d, want 16", s.RELOC)
	}
	if s.RelocBusy != 25 {
		t.Errorf("RelocBusy = %d, want the plan cost 25", s.RelocBusy)
	}
	if c.Inserted != 1 {
		t.Errorf("Inserted = %d, want 1", c.Inserted)
	}
}
