package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/workload"
)

func TestGeometryPerPreset(t *testing.T) {
	mix := workload.Mix{Name: "x", Apps: workload.Sources(workload.Benchmarks()[:1]...)}
	cases := []struct {
		preset Preset
		fast   int
	}{
		{Base, 0},
		{FIGCacheSlow, 0},
		{FIGCacheFast, 2},
		{FIGCacheIdeal, 2},
		{LISAVilla, 16},
		{LLDRAM, 0},
	}
	for _, c := range cases {
		cfg := DefaultConfig(c.preset, mix)
		if err := cfg.normalize(); err != nil {
			t.Fatal(err)
		}
		if got := cfg.geometry().FastSubarrays; got != c.fast {
			t.Errorf("%v: fast subarrays = %d, want %d", c.preset, got, c.fast)
		}
	}
}

func TestBuildHookKinds(t *testing.T) {
	mix := workload.Mix{Name: "x", Apps: workload.Sources(workload.Benchmarks()[:1]...)}
	for _, p := range []Preset{Base, LLDRAM} {
		cfg := DefaultConfig(p, mix)
		if err := cfg.normalize(); err != nil {
			t.Fatal(err)
		}
		hook, err := cfg.buildHook(cfg.geometry())
		if err != nil {
			t.Fatal(err)
		}
		if hook != nil {
			t.Errorf("%v: expected no cache hook", p)
		}
	}
	for _, p := range []Preset{FIGCacheSlow, FIGCacheFast, FIGCacheIdeal} {
		cfg := DefaultConfig(p, mix)
		if err := cfg.normalize(); err != nil {
			t.Fatal(err)
		}
		hook, err := cfg.buildHook(cfg.geometry())
		if err != nil {
			t.Fatal(err)
		}
		if FIGCacheOf(hook) == nil {
			t.Errorf("%v: hook is not FIGCache-based", p)
		}
	}
}

func TestFIGCacheSlowReservesSubarrayZero(t *testing.T) {
	mix := workload.Mix{Name: "x", Apps: workload.Sources(workload.Benchmarks()[:1]...)}
	cfg := DefaultConfig(FIGCacheSlow, mix)
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	hook, err := cfg.buildHook(cfg.geometry())
	if err != nil {
		t.Fatal(err)
	}
	fc := FIGCacheOf(hook)
	if fc.Config().ReservedSubarray != 0 {
		t.Errorf("FIGCache-Slow reserved subarray = %d, want 0", fc.Config().ReservedSubarray)
	}
	// It must never cache segments from the reserved subarray.
	if fc.ShouldInsert(dram.Location{Row: 100}) {
		t.Error("segment from the reserved subarray accepted")
	}
}

func TestIdealHookZeroesCost(t *testing.T) {
	mix := workload.Mix{Name: "x", Apps: workload.Sources(workload.Benchmarks()[:1]...)}
	cfg := DefaultConfig(FIGCacheIdeal, mix)
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	geo := cfg.geometry()
	hook, err := cfg.buildHook(geo)
	if err != nil {
		t.Fatal(err)
	}
	slow := dram.DDR4()
	ch, err := dram.NewChannel(geo, slow, slow.Fast(dram.PaperFastScale()), false)
	if err != nil {
		t.Fatal(err)
	}
	if got := FIGCacheOf(hook).Config().Substrate; got != core.SubstrateIdeal {
		t.Errorf("FIGCache-Ideal substrate = %v, want %v", got, core.SubstrateIdeal)
	}
	plan, ok := hook.Insert(ch, dram.Location{Row: 7}, 0)
	if !ok {
		t.Fatal("ideal hook refused an insertion")
	}
	// The RELOCs of one FIGARO segment insertion, counted at no cost.
	if plan.Cost != 0 || plan.Blocks != 16 || plan.IsLISA || plan.ChannelWide {
		t.Errorf("ideal plan = %+v, want 16 free FIGARO RELOCs", plan)
	}
	hook.Commit(plan)
	if _, hit := hook.Lookup(dram.Location{Row: 7}, false); !hit {
		t.Error("ideal hook did not commit the insertion")
	}
}

func TestFloorPow2(t *testing.T) {
	cases := map[uint64]uint64{1: 1, 2: 2, 3: 2, 4: 4, 1023: 512, 1024: 1024, 1025: 1024}
	for in, want := range cases {
		if got := floorPow2(in); got != want {
			t.Errorf("floorPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestImmediateRelocConfigPropagates(t *testing.T) {
	spec, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	spec.Bubbles = 4
	spec.HotSegments = 2560
	spec.HotFraction = 0.95
	mix := workload.Mix{Name: "warm", Apps: workload.Sources(spec)}

	run := func(immediate bool) Result {
		cfg := DefaultConfig(FIGCacheFast, mix)
		cfg.TargetInsts = 60_000
		cfg.ImmediateReloc = immediate
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	deferred := run(false)
	immediate := run(true)
	if deferred.Inserted == 0 || immediate.Inserted == 0 {
		t.Fatal("no insertions in one of the runs")
	}
	// The runs must actually differ (the flag reached the controller).
	if deferred.Cycles == immediate.Cycles && deferred.DRAM == immediate.DRAM {
		t.Error("immediate-relocation flag had no effect")
	}
}

func TestResultDerivedMetrics(t *testing.T) {
	r := Result{
		Cores:      []CoreResult{{IPC: 1.0}, {IPC: 0.5}},
		TotalInsts: 2000,
		LLCMisses:  50,
	}
	if got := r.IPCSum(); got != 1.5 {
		t.Errorf("IPCSum = %g", got)
	}
	if got := r.LLCMPKI(); got != 25 {
		t.Errorf("LLCMPKI = %g, want 25", got)
	}
	empty := Result{}
	if empty.LLCMPKI() != 0 || empty.InDRAMCacheHitRate() != 0 {
		t.Error("empty result metrics not zero")
	}
	// Mismatched core counts yield 0 rather than a bogus ratio.
	if got := r.WeightedSpeedupOver(Result{}); got != 0 {
		t.Errorf("mismatched WS = %g, want 0", got)
	}
}

func TestPresetListOrder(t *testing.T) {
	ps := Presets()
	if len(ps) != 6 || ps[0] != Base || ps[len(ps)-1] != LLDRAM {
		t.Errorf("preset order = %v", ps)
	}
}
