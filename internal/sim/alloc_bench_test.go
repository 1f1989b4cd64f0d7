package sim

import (
	"testing"

	"repro/internal/workload"
)

// BenchmarkAccessPathAllocs drives the steady-state memory access path —
// core issue, L1/L2/LLC lookups and fills, pooled MSHRs, the adapter's
// pooled memctrl.Request objects, controller scheduling, DRAM timing,
// the bounded latency reservoir, and the event heap — and asserts that
// it allocates nothing once warm. The warm-up run grows every pool,
// queue and heap to its steady-state capacity; from then on the access
// path must be allocation-free, so full-Scale runs no longer spend time
// in the allocator or grow with run length.
func BenchmarkAccessPathAllocs(b *testing.B) {
	spec, err := workload.ByName("mcf")
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(Base, workload.Mix{Name: "mcf", Apps: workload.Sources(spec)})
	// The target is unreachable within the driven spans: the benchmark
	// measures the steady state, not a completed run.
	cfg.TargetInsts = 1 << 40
	cfg.MaxCycles = 1 << 62
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	s.runSkippingUntil(400_000, 0) // warm pools, queues, and the event heap

	allocs := testing.AllocsPerRun(5, func() {
		s.runSkippingUntil(s.clock+50_000, 0)
	})
	b.ReportMetric(allocs, "allocs/op")
	if allocs > 0 {
		b.Fatalf("steady-state access path allocated %.1f times per 50k-cycle span, want 0", allocs)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.runSkippingUntil(s.clock+50_000, 0)
	}
	b.ReportMetric(float64(50_000*b.N)/b.Elapsed().Seconds(), "sim-cycles/s")
}

// BenchmarkAccessPathAllocsReloc drives the access path with an active
// relocation preset, so the steady state additionally covers the cache
// hook's insertion decisions and reservations, the RelocPlan values it
// returns, and the per-bank pending-plan slices that hold them, whose
// backing arrays survive each flush. Relocation traffic is continuous
// for mcf under FIGCache-Fast, so a single allocation per insertion
// would show up immediately.
func BenchmarkAccessPathAllocsReloc(b *testing.B) {
	spec, err := workload.ByName("mcf")
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(FIGCacheFast, workload.Mix{Name: "mcf", Apps: workload.Sources(spec)})
	// The target is unreachable within the driven spans: the benchmark
	// measures the steady state, not a completed run.
	cfg.TargetInsts = 1 << 40
	cfg.MaxCycles = 1 << 62
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	// Relocation state (hook maps, pending-plan slices) takes longer to
	// reach steady capacity than the pools alone.
	s.runSkippingUntil(1_200_000, 0)

	allocs := testing.AllocsPerRun(5, func() {
		s.runSkippingUntil(s.clock+50_000, 0)
	})
	b.ReportMetric(allocs, "allocs/op")
	if allocs > 0 {
		b.Fatalf("steady-state relocation path allocated %.1f times per 50k-cycle span, want 0", allocs)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.runSkippingUntil(s.clock+50_000, 0)
	}
	b.ReportMetric(float64(50_000*b.N)/b.Elapsed().Seconds(), "sim-cycles/s")
}

// BenchmarkAccessPathAllocsMulticore drives the eight-core access path
// the way checkpointed multi-core windows run it: bounded engine spans
// that end on the RunUntilRetired stop rule. It covers the skipping
// engine's per-core schedule — lazily held batches and blocked stretches,
// settlement on events and at the stop, the closed-form retired count —
// on top of four controllers and the shared LLC. The per-core schedule
// is allocated once, like the controller wakes, so every span after the
// warm-up must be allocation-free.
func BenchmarkAccessPathAllocsMulticore(b *testing.B) {
	var mix workload.Mix
	for _, m := range workload.EightCoreMixes() {
		if m.Name == "mix-100-0" {
			mix = m
		}
	}
	cfg := DefaultConfig(FIGCacheFast, mix)
	// Unreachable targets: every span ends on the stop rule or its cycle
	// bound, never on a finished core.
	cfg.TargetInsts = 1 << 40
	cfg.MaxCycles = 1 << 62
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	// Each span stops after 40k more retired instructions (all cores),
	// well inside its 50k-cycle bound, so the stop rule's exact count runs.
	span := func() {
		s.runSkippingUntil(s.clock+50_000, s.totalRetired()+40_000)
	}
	for i := 0; i < 40; i++ { // warm pools, queues, the event heap, relocation state
		span()
	}

	allocs := testing.AllocsPerRun(5, span)
	b.ReportMetric(allocs, "allocs/op")
	if allocs > 0 {
		b.Fatalf("steady-state multi-core access path allocated %.1f times per span, want 0", allocs)
	}

	b.ResetTimer()
	var insts int64
	for i := 0; i < b.N; i++ {
		before := s.totalRetired()
		span()
		insts += s.totalRetired() - before
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "sim-insts/s")
}
