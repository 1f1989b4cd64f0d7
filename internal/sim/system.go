package sim

import (
	"errors"
	"fmt"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/ev"
	"repro/internal/memctrl"
	"repro/internal/workload"
)

// System is one fully assembled simulated machine.
type System struct {
	cfg    Config
	clock  int64
	events eventQueue

	cores    []*cpu.Core
	hier     *cache.Hierarchy
	mapper   *memctrl.AddrMapper //fglint:preserved address-decode tables derived from config; Decode only reads them
	ctrls    []*memctrl.Controller
	channels []*dram.Channel
	hooks    []memctrl.CacheHook
	adapter  *memAdapter

	// busSched converts a controller's bus-cycle completion tokens to
	// CPU-cycle events. Bound once at construction so the per-tick calls
	// do not evaluate a fresh closure on the hot path.
	busSched func(at int64, tok ev.Token)
	// ctrlWake[i] is the next-work bus cycle controller i reported at its
	// most recent tick; zero forces a tick at the first bus boundary.
	// Owned by runSkippingUntil, kept on the System so resumed engine
	// runs (benchmarks drive bounded spans) neither reallocate it nor
	// re-tick idle controllers.
	ctrlWake []int64
	// lazy[i] is core i's schedule in the skipping engine: its next full
	// Tick and the closed-form span before it (see coreLazy). Allocated
	// once, like ctrlWake.
	//fglint:preserved derived state: runSkippingUntil rebuilds it on every entry and settles every core on exit
	lazy []coreLazy
	// l1Core maps a cache node ID to the core whose L1 it is, -1 for the
	// shared and second levels: a fill on a core's L1 is an event that
	// touches the core.
	//fglint:preserved topology constant, derived from the hierarchy on first use
	l1Core []int32
	// skipping is set while runSkippingUntil runs; Dispatch settles a lazy
	// core before an event touches it only then.
	//fglint:preserved cleared by runSkippingUntil on exit, before Reset or Restore can run
	skipping bool

	// latencyLanes maps a fixed cache-level latency to its FIFO lane
	// scheduler (see LevelScheduler); lanes are bound once at construction
	// and survive Reset.
	//fglint:preserved lane bindings are config-determined; eventQueue.reset clears the lanes' state
	latencyLanes map[int64]*laneScheduler
}

// TraceOpener resolves one core's workload source into the trace reader
// that feeds it, given the exact parameters System.initCores derives from
// the configuration (per-core seed, address window, physical layout).
// A nil opener means the default resolution, workload.Source.Open.
// figperf's record timer is the one non-default opener: it wraps every
// reader to time its Next calls, for per-layer attribution.
//
// The opener is a construction-time parameter, never stored on the
// System: Reset always reverts to the default source resolution.
type TraceOpener func(core int, src workload.Source, seed, base, span uint64, layout workload.Layout) (cpu.TraceReader, error)

// New builds a system for the configuration.
func New(cfg Config) (*System, error) { return NewWithOpener(cfg, nil) }

// NewWithOpener builds a system for the configuration, resolving each
// core's workload source through open (nil selects the default,
// workload.Source.Open). See TraceOpener.
func NewWithOpener(cfg Config, open TraceOpener) (*System, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	s := &System{cfg: cfg}

	geo := cfg.geometry()
	slow := dram.DDR4()
	fast := slow.Fast(dram.PaperFastScale())
	allFast := cfg.Preset == LLDRAM

	mapper, err := memctrl.NewAddrMapper(geo, cfg.Channels)
	if err != nil {
		return nil, err
	}
	s.mapper = mapper

	for ch := 0; ch < cfg.Channels; ch++ {
		channel, err := dram.NewChannel(geo, slow, fast, allFast)
		if err != nil {
			return nil, err
		}
		hook, err := cfg.buildHook(geo)
		if err != nil {
			return nil, err
		}
		mcCfg := memctrl.DefaultConfig()
		mcCfg.ImmediateReloc = cfg.ImmediateReloc
		s.channels = append(s.channels, channel)
		s.hooks = append(s.hooks, hook)
		s.ctrls = append(s.ctrls, memctrl.NewController(ch, mcCfg, channel, hook))
	}

	s.adapter = &memAdapter{sys: s}
	// Seed the request pool to its structural bound — every controller
	// queue slot full plus a drain buffer's worth in flight — so the pool
	// never grows mid-run: high-water-mark creep under bursty relocation
	// traffic would otherwise allocate long past warm-up.
	mcDefaults := memctrl.DefaultConfig()
	poolCap := cfg.Channels*(mcDefaults.ReadQueueDepth+mcDefaults.WriteQueueDepth) + 64
	backing := make([]memctrl.Request, poolCap) // one block: one GC object, not poolCap
	s.adapter.free = make([]*memctrl.Request, poolCap)
	for i := range s.adapter.free {
		s.adapter.free[i] = &backing[i]
	}
	for _, ctrl := range s.ctrls {
		ctrl.Release = s.adapter.release
	}
	s.bindBusSched()
	hier, err := cache.NewHierarchy(cfg.hierarchyConfig(), s.adapter, s)
	if err != nil {
		return nil, err
	}
	s.hier = hier

	if err := s.initCores(true, open); err != nil {
		return nil, err
	}
	return s, nil
}

// bindBusSched (re)binds the bus-to-CPU clock conversion closure for the
// current configuration's CPUPerBus ratio. Bound per New/Reset rather
// than per tick, so the hot path never evaluates a fresh closure.
func (s *System) bindBusSched() {
	cpb := s.cfg.CPUPerBus
	s.busSched = func(at int64, tok ev.Token) {
		s.events.schedule(at*cpb, tok)
	}
}

// Dispatch implements ev.Dispatcher: execute one event token. This is
// the single point where a deferred action — a due event, a fill's
// synchronous waiter — turns back into the method call it stands for.
//
// Under the skipping engine the tokens that change a core's state — its
// load completing, a fill on its L1 — first settle that core's lazy
// cycles (settle before touch). A fill's inline waiters arrive with
// now=0, so the current cycle comes from the System clock.
func (s *System) Dispatch(t ev.Token, now int64) {
	switch t.Kind {
	case ev.CoreSlot:
		if s.skipping {
			s.touchCore(int(t.ID))
		}
		s.cores[t.ID].CompleteSlot(int(t.Arg))
	case ev.MSHRStart:
		s.hier.Node(t.ID).StartFetch(t.Arg)
	case ev.MSHRFill:
		if s.skipping {
			if i := s.l1Core[t.ID]; i >= 0 {
				s.touchCore(int(i))
			}
		}
		s.hier.Node(t.ID).Fill(t.Arg)
	}
}

// initCores builds (fresh) or retargets (reuse) the per-core trace
// readers and cores for s.cfg. Cores get equal disjoint address windows
// (or one shared window for multithreaded workloads). Each workload
// source resolves into a cpu.TraceReader through workload.Source.Open:
// synthetic specs scatter their footprint across the whole window
// (mimicking OS page placement across banks and subarrays), recorded
// traces replay their stream rebased into the window. Trace files are
// read here — compute time — not during planning or fingerprinting of
// the synthetic parts; Reset reopens sources, which rewinds replayers
// bit-identically (the loaded trace bytes are cached and immutable).
func (s *System) initCores(fresh bool, open TraceOpener) error {
	cfg := s.cfg
	geo := cfg.geometry()
	span := uint64(s.mapper.TotalBytes())
	if !cfg.SharedFootprint {
		span = floorPow2(uint64(s.mapper.TotalBytes()) / uint64(len(cfg.Mix.Apps)))
	}
	for i, src := range cfg.Mix.Apps {
		base := uint64(0)
		if !cfg.SharedFootprint {
			base = uint64(i) * span
		}
		footprint, err := src.FootprintBytes()
		if err != nil {
			return fmt.Errorf("sim: %w", err)
		}
		if uint64(footprint) > span {
			return fmt.Errorf("sim: %s footprint %d exceeds its %d-byte window",
				src.Name(), footprint, span)
		}
		// The generator needs the distance between two rows of the same
		// bank under this system's interleaving, so hot conflict groups
		// land in one bank across different rows (Section 8.1). Threads of
		// a multithreaded workload share one layout seed so their logical
		// segments resolve to the same physical addresses. Recorded traces
		// ignore both knobs: their access pattern is fixed at record time.
		layout := workload.Layout{
			RowStrideBytes: uint64(geo.RowBytes) * uint64(cfg.Channels) *
				uint64(geo.BanksPerRank()) * uint64(geo.Ranks),
		}
		if cfg.SharedFootprint {
			layout.LayoutSeed = cfg.Seed + 0x51ed270b
		}
		seed := cfg.Seed + uint64(i)*1315423911
		var gen cpu.TraceReader
		if open != nil {
			gen, err = open(i, src, seed, base, span, layout)
		} else {
			gen, err = src.Open(seed, base, span, layout)
		}
		if err != nil {
			return err
		}
		if fresh {
			c, err := cpu.New(i, cfg.coreConfig(), gen, s.hier.L1s[i], cfg.TargetInsts)
			if err != nil {
				return err
			}
			s.cores = append(s.cores, c)
		} else if err := s.cores[i].Reset(cfg.coreConfig(), gen, cfg.TargetInsts); err != nil {
			return err
		}
	}
	return nil
}

// ErrShapeMismatch reports that Reset was asked to retarget a System to a
// configuration whose structural shape (channel count or core count, see
// Config.ShapeKey) differs from the one the System was built with. The
// caller should construct a fresh System instead.
var ErrShapeMismatch = errors.New("sim: Reset config shape differs from the System's")

// Reset retargets the System to a new configuration of the same shape,
// reusing every expensive allocation a fresh construction would redo:
// cache line arrays, the event queue and its FIFO lanes, pooled
// memctrl.Requests and MSHRs, DRAM bank objects, controller queues and
// per-bank arrays, and the core window rings. After a successful Reset
// the System is observationally identical to sim.New(cfg) — enforced
// bit-for-bit by TestEngineEquivalence's reuse cases. On error the System
// must be discarded (state may be partially reinitialized).
//
// The in-DRAM cache hooks are rebuilt rather than reset: their tag-store
// state is configuration-dependent and tiny next to the arrays above.
func (s *System) Reset(cfg Config) error {
	if err := cfg.normalize(); err != nil {
		return err
	}
	if cfg.Channels != s.cfg.Channels || len(cfg.Mix.Apps) != len(s.cfg.Mix.Apps) {
		return fmt.Errorf("%w: have %s, want %s", ErrShapeMismatch, s.cfg.ShapeKey(), cfg.ShapeKey())
	}
	geo := cfg.geometry()
	allFast := cfg.Preset == LLDRAM

	mapper, err := memctrl.NewAddrMapper(geo, cfg.Channels)
	if err != nil {
		return err
	}
	s.mapper = mapper

	for ch, channel := range s.channels {
		if err := channel.Reset(geo, allFast); err != nil {
			return err
		}
		hook, err := cfg.buildHook(geo)
		if err != nil {
			return err
		}
		mcCfg := memctrl.DefaultConfig()
		mcCfg.ImmediateReloc = cfg.ImmediateReloc
		s.hooks[ch] = hook
		s.ctrls[ch].Reset(mcCfg, hook)
	}
	s.adapter.reset()
	s.hier.Reset()

	s.cfg = cfg
	s.clock = 0
	s.bindBusSched() // the closure captures CPUPerBus, which may change
	s.events.reset()
	// The wake slice keeps its length (same controller count); a zero wake
	// forces a tick at the first bus boundary, exactly like first
	// construction.
	for i := range s.ctrlWake {
		s.ctrlWake[i] = 0
	}
	return s.initCores(false, nil)
}

// LevelScheduler implements cache.LevelSchedulerFactory: cache levels get
// FIFO lanes of the event queue, one lane per distinct lookup latency. A
// fixed delay makes a lane's due times monotonic no matter how many
// caches feed it, so the lane count stays at the number of distinct
// latencies (three for the Table 1 hierarchy) instead of growing with the
// core count — the per-event cost of servicing lanes scales with lane
// count. Each lane replaces a heap push/pop pair per cache event, the
// hottest event source in the simulator.
func (s *System) LevelScheduler(latency int64) cache.Scheduler {
	if sched, ok := s.latencyLanes[latency]; ok {
		return sched
	}
	if s.latencyLanes == nil {
		s.latencyLanes = make(map[int64]*laneScheduler)
	}
	sched := &laneScheduler{sys: s, lane: s.events.newLane()}
	s.latencyLanes[latency] = sched
	return sched
}

// laneScheduler defers callbacks onto one FIFO lane of the system's event
// queue.
type laneScheduler struct {
	sys  *System
	lane int
}

func (l *laneScheduler) After(delay int64, tok ev.Token) {
	l.sys.events.scheduleLane(l.lane, l.sys.clock+delay, tok)
}

// Dispatch forwards token execution to the System.
func (l *laneScheduler) Dispatch(t ev.Token, now int64) { l.sys.Dispatch(t, now) }

// floorPow2 rounds v down to a power of two.
func floorPow2(v uint64) uint64 {
	p := uint64(1)
	for p<<1 <= v {
		p <<= 1
	}
	return p
}

// After implements cache.Scheduler on the system's event queue.
func (s *System) After(delay int64, tok ev.Token) {
	s.events.schedule(s.clock+delay, tok)
}

// Clock returns the current CPU cycle.
func (s *System) Clock() int64 { return s.clock }

// Config returns the normalized run configuration (defaults filled in).
func (s *System) Config() Config { return s.cfg }

// Cores exposes the simulated cores.
func (s *System) Cores() []*cpu.Core { return s.cores }

// Hierarchy exposes the SRAM hierarchy.
func (s *System) Hierarchy() *cache.Hierarchy { return s.hier }

// Controllers exposes the per-channel memory controllers.
func (s *System) Controllers() []*memctrl.Controller { return s.ctrls }

// Hooks exposes the per-channel in-DRAM cache hooks (nil entries for
// configurations without one).
func (s *System) Hooks() []memctrl.CacheHook { return s.hooks }

// memAdapter bridges the SRAM hierarchy to the memory controllers: it
// decodes addresses, buffers requests that do not fit in the controller
// queues, and converts completion times between clock domains.
type memAdapter struct {
	sys     *System //fglint:preserved back-pointer; the System resets itself (and this adapter)
	pending []pendingReq
	blocked []bool // per-channel head-of-line marker, reused across drains
	// enqueued[ch] reports whether the latest drain handed channel ch a
	// new request; the cycle-skipping engine must tick that controller
	// even if its next-work probe says it would otherwise stay idle.
	enqueued []bool
	// free recycles Request objects the controllers have retired
	// (Controller.Release points here), so the steady-state access path
	// allocates nothing: the pool grows to the peak number of in-flight
	// requests and is reused from then on.
	//fglint:preserved recycled Requests are fully overwritten by alloc before reuse
	free []*memctrl.Request
}

type pendingReq struct {
	channel int
	req     *memctrl.Request
}

// reset drops buffered requests and clears the per-channel markers while
// keeping the request pool: the steady-state peak of one run seeds the
// next run's pool. Requests still sitting in controller queues are
// abandoned (the controllers drop them on their own Reset); the pool
// simply regrows to its working set if needed.
func (m *memAdapter) reset() {
	for i := range m.pending {
		m.pending[i] = pendingReq{}
	}
	m.pending = m.pending[:0]
	for i := range m.blocked {
		m.blocked[i] = false
		m.enqueued[i] = false
	}
}

// Request implements cache.Backend.
func (m *memAdapter) Request(addr uint64, isWrite bool, coreID int, onDone ev.Token) {
	ch, loc := m.sys.mapper.Decode(addr)
	req := m.alloc()
	req.Addr, req.Loc, req.IsWrite, req.CoreID = addr, loc, isWrite, coreID
	// The controller hands OnComplete to busSched, which converts bus
	// cycles to CPU cycles, so the token fires in CPU time and can be
	// passed through directly.
	req.OnComplete = onDone
	m.pending = append(m.pending, pendingReq{channel: ch, req: req})
}

// alloc pops a recycled request or allocates a fresh one.
func (m *memAdapter) alloc() *memctrl.Request {
	if n := len(m.free); n > 0 {
		r := m.free[n-1]
		m.free[n-1] = nil
		m.free = m.free[:n-1]
		return r
	}
	return new(memctrl.Request)
}

// release implements memctrl.Controller.Release: the request has been
// fully served (its completion callback scheduled), so it can be reset
// and reused by the next access.
func (m *memAdapter) release(r *memctrl.Request) {
	*r = memctrl.Request{}
	m.free = append(m.free, r)
}

// drain moves buffered requests into controller queues in arrival order.
// Order is preserved per channel: once one request for a channel is
// blocked (its controller queue is full), every later request for that
// channel stalls behind it, even if it targets the other queue — a
// blocked write must not let a younger read to the same channel jump
// ahead. Kept requests are compacted in place (no per-element splicing).
func (m *memAdapter) drain(busNow int64) {
	if m.blocked == nil {
		m.blocked = make([]bool, len(m.sys.ctrls))
		m.enqueued = make([]bool, len(m.sys.ctrls))
	} else {
		for i := range m.blocked {
			m.blocked[i] = false
			m.enqueued[i] = false
		}
	}
	if len(m.pending) == 0 {
		return
	}
	kept := m.pending[:0]
	for _, p := range m.pending {
		if !m.blocked[p.channel] && m.sys.ctrls[p.channel].CanAccept(p.req.IsWrite) {
			m.sys.ctrls[p.channel].Enqueue(p.req, busNow)
			m.enqueued[p.channel] = true
			continue
		}
		m.blocked[p.channel] = true
		kept = append(kept, p)
	}
	for i := len(kept); i < len(m.pending); i++ {
		m.pending[i] = pendingReq{} // release dropped requests for GC
	}
	m.pending = kept
}

// Run executes the system until every core reaches its instruction target
// (or MaxCycles elapse) and returns the collected results. It uses the
// cycle-skipping engine unless Config.DenseLoop selects the reference
// cycle-by-cycle loop; the two are bit-identical (TestEngineEquivalence).
func (s *System) Run() (Result, error) {
	if s.cfg.DenseLoop {
		s.runDense(0)
	} else {
		s.runSkipping()
	}
	for _, c := range s.cores {
		if !c.Done() {
			return Result{}, fmt.Errorf("sim: core %d retired only %d/%d instructions in %d cycles",
				c.ID, c.Retired, c.TargetInsts, s.clock)
		}
	}
	return s.collect(), nil
}

// totalRetired sums the retired instruction count across all cores.
func (s *System) totalRetired() int64 {
	var total int64
	for _, c := range s.cores {
		total += c.Retired
	}
	return total
}

// RunUntilRetired executes the system until the total retired
// instruction count across all cores reaches target (or every core
// finishes, or MaxCycles elapse). It is the checkpoint stop-point:
// the run pauses on a fully executed cycle, a Snapshot taken here
// captures the complete machine state, and calling Run afterwards —
// on this System or on a fresh one restored from the snapshot —
// finishes the run bit-identically to an uninterrupted Run. The
// cycle-skipping engine may overshoot target by the tail of a batched
// bubble run; callers needing an exact count should use the dense
// engine.
func (s *System) RunUntilRetired(target int64) {
	if s.cfg.DenseLoop {
		s.runDense(target)
	} else {
		s.runSkippingUntil(s.cfg.MaxCycles, target)
	}
}

// runDense is the reference engine: advance the clock one CPU cycle at a
// time, ticking the memory system every bus cycle and every core every
// CPU cycle. A positive stopRetired pauses the loop once the total
// retired instruction count reaches it: the current cycle completes in
// full, so a snapshot taken at the pause resumes bit-identically.
func (s *System) runDense(stopRetired int64) {
	cpb := s.cfg.CPUPerBus
	for ; s.clock < s.cfg.MaxCycles; s.clock++ {
		s.events.fireDue(s.clock, s)
		if s.clock%cpb == 0 {
			busNow := s.clock / cpb
			s.adapter.drain(busNow)
			for _, ctrl := range s.ctrls {
				ctrl.Tick(busNow, s.busSched)
			}
		}
		allDone := true
		for _, c := range s.cores {
			c.Tick(s.clock)
			if !c.Done() {
				allDone = false
			}
		}
		if allDone {
			s.clock++
			break
		}
		if stopRetired > 0 && s.totalRetired() >= stopRetired {
			s.clock++
			break
		}
	}
}

// runSkipping is the cycle-skipping engine. Each executed cycle performs
// exactly what the dense loop would (events, bus tick on bus-cycle
// boundaries, core ticks, in the same order); the difference is that the
// clock then jumps directly to the next cycle at which anything
// *unpredictable* can happen:
//
//   - the next scheduled event (cache latencies, fills, DRAM completions),
//   - the next cycle a core must execute a full Tick: immediately while
//     it can touch the cache, or after the bubble run it can execute in
//     closed form (cpu.Core.BatchableCycles),
//   - the next bus cycle a controller could change state (the next-work
//     probe returned by memctrl.Controller.Tick), and
//   - the next bus boundary while the adapter holds requests waiting for
//     controller queue space.
//
// Cycles in between are either provably no-ops in the dense loop —
// blocked cores only unblock through scheduler events, and DRAM timing
// windows only move when a command issues — or pure bubble issue/retire
// cycles whose dense effect cpu.Core.AdvanceBatch replays arithmetically,
// so jumping over them is bit-identical.
//
// The same rule holds per core inside an executed cycle: each core has
// its own wake cycle (coreLazy), and only the cores that are due execute
// Tick, in ID order. A core that is blocked or mid-batch stays lazy — it
// touches neither its L1 nor the event queue, so skipping its dense
// ticks moves nothing the due cores can see — and its cycles are settled
// in closed form only when something needs its state: before it ticks,
// before an event touches it (Dispatch), when its batch may finish it,
// and on exit.
func (s *System) runSkipping() { s.runSkippingUntil(s.cfg.MaxCycles, 0) }

// coreLazy is one core's schedule in the skipping engine. The core's
// state includes every cycle through settled; the cycles settled+1 ..
// wake-1 are lazy — a closed-form bubble batch when batch is set
// (cpu.Core.AdvanceBatch), else a blocked stretch whose refused ticks
// cpu.Core.AccountSkipped credits — and wake is the next cycle it must
// execute a full Tick (maxInt64 while blocked: only an event can wake
// it). stale marks a core an event touched in the current cycle; its
// wake is recomputed before the cores tick.
type coreLazy struct {
	wake    int64
	settled int64
	batch   bool
	stale   bool
}

// runSkippingUntil runs the skipping engine until every core is done or
// the clock reaches maxCycles (exclusive). Factored out so benchmarks
// can drive the engine for a bounded cycle span. A positive stopRetired
// pauses the loop once the total retired count reaches it; the stop rule
// is checked at the end of every executed cycle and at the end of every
// jump, so a checkpoint may land a few batched cycles past the threshold
// — the contract is that pausing and resuming the same engine is
// bit-identical, not that both engines pause on the same cycle.
func (s *System) runSkippingUntil(maxCycles, stopRetired int64) {
	cpb := s.cfg.CPUPerBus
	if s.ctrlWake == nil {
		s.ctrlWake = make([]int64, len(s.ctrls))
	}
	if s.lazy == nil {
		s.lazy = make([]coreLazy, len(s.cores))
		s.l1Core = make([]int32, len(s.hier.Nodes()))
		for i := range s.l1Core {
			s.l1Core[i] = -1
		}
		for i, l1 := range s.hier.L1s {
			s.l1Core[l1.NodeID()] = int32(i)
		}
	}
	// Every core enters settled and due at the first cycle, exactly as the
	// first executed cycle ticks every core.
	for i := range s.lazy {
		s.lazy[i] = coreLazy{wake: s.clock, settled: s.clock - 1}
	}
	rw := int64(s.cfg.coreConfig().RetireWidth)
	s.skipping = true
	for s.clock < maxCycles {
		t := s.clock
		s.events.fireDue(t, s)
		if t%cpb == 0 {
			s.busTick(t / cpb)
		}
		// One pass over the cores: recompute the wakes of cores an event
		// touched, tick the due ones in ID order, settle batches that end
		// at t (the cap puts a target crossing on a batch's last cycle),
		// and gather the next core wake plus an upper bound on the total
		// retired through t for the stop rule.
		next := maxCycles
		allDone := true
		var retired, lazySpan, batching int64
		for i, c := range s.cores {
			l := &s.lazy[i]
			if l.stale {
				l.stale = false
				s.rewake(i, t-1) // touchCore settled it through t-1
			}
			if l.wake == t {
				s.settleCore(i, t-1)
				c.Tick(t)
				l.settled = t
				s.rewake(i, t)
			} else if l.wake == t+1 && l.batch {
				s.settleCore(i, t)
			}
			if !c.Done() {
				allDone = false
			}
			retired += c.Retired
			if l.batch {
				lazySpan += t - l.settled
				batching++
			}
			if l.wake < next {
				next = l.wake
			}
		}
		if allDone {
			s.clock = t + 1
			break
		}
		// A lazy batch retires at most RetireWidth per cycle, so the exact
		// count is only needed once the bound reaches the stop target.
		bound := retired + rw*lazySpan
		if stopRetired > 0 && bound >= stopRetired && s.retiredThrough(t) >= stopRetired {
			s.clock = t + 1
			break
		}

		if next > t+1 {
			// Only consult the event queue and the memory system when
			// every core is blocked or batchable: due events have already
			// fired, so neither source can be earlier than clock+1.
			eventNext := int64(maxInt64)
			if at, ok := s.events.nextAt(); ok {
				eventNext = at
			}
			// Memory-only fast path: while the earliest thing anywhere in
			// the machine is controller work — strictly before the next
			// event and the next core wake — tick the due controllers in
			// place, one bus cycle at a time, instead of surfacing each
			// bus cycle to this loop. The dense loop's cycles in between
			// are core no-ops (every core is blocked or mid-bubble-batch,
			// settled lazily either way) and fire no events, so the only
			// dense effects are the controller ticks busTick replays in
			// ID order. Completions scheduled along the way can only pull
			// eventNext earlier, never invalidate work already done: each
			// lies beyond the bus cycle whose tick scheduled it.
			bus := s.nextBusWork(cpb, t)
			for bus < next && bus < eventNext {
				s.busTick(bus / cpb)
				if at, ok := s.events.nextAt(); ok && at < eventNext {
					eventNext = at
				}
				bus = s.nextBusWork(cpb, bus)
			}
			if eventNext < next {
				next = eventNext
			}
			if bus < next {
				next = bus
			}
		}
		if next <= t {
			next = t + 1
		}
		// A jump of more than one cycle passes only lazy cores. The dense
		// loop's last cycle before the next executed one is where it would
		// observe a finish or the stop target inside the jump: a batch
		// ending there may finish its core, and the retired total is
		// counted in closed form once the bound allows the stop.
		if e := next - 1; e > t {
			allDone := true
			for i, c := range s.cores {
				if c.Done() {
					continue
				}
				if l := &s.lazy[i]; l.wake == next && l.batch {
					s.settleCore(i, e)
					if c.Done() {
						continue
					}
				}
				allDone = false
				break
			}
			if allDone {
				s.clock = next // dense clock after its last executed cycle
				break
			}
			if stopRetired > 0 && bound+rw*batching*(e-t) >= stopRetired && s.retiredThrough(e) >= stopRetired {
				s.clock = next
				break
			}
		}
		s.clock = next
	}
	s.skipping = false
	// Settle every core through the last executed cycle (s.clock-1 on
	// every exit path), so Snapshot and Result see the state the
	// dense loop would have.
	for i := range s.cores {
		s.settleCore(i, s.clock-1)
	}
	// Settle write-drain credit for controller ticks skipped at the very
	// end of the run: the dense loop ticks every bus boundary up to the
	// last executed cycle.
	lastBus := (s.clock - 1) / cpb
	for _, ctrl := range s.ctrls {
		ctrl.AccountSkippedTail(lastBus)
	}
}

// rewake schedules core i after the cycle `now` its state is settled
// through: due at now+1 if it can run then, unless that cycle starts a
// closed-form batch, in which case the batch is held lazily and the core
// is due after it; never (maxInt64) while blocked.
func (s *System) rewake(i int, now int64) {
	c, l := s.cores[i], &s.lazy[i]
	w := c.NextWake(now)
	l.batch = false
	if w == now+1 {
		if b := c.BatchableCycles(); b > 0 {
			w += b
			l.batch = true
		}
	}
	l.wake = w
}

// settleCore applies core i's lazy cycles up to and including `through`:
// a prefix of its batch in closed form, or the refused ticks of a
// blocked stretch.
func (s *System) settleCore(i int, through int64) {
	l := &s.lazy[i]
	k := through - l.settled
	if k <= 0 {
		return
	}
	if l.batch {
		s.cores[i].AdvanceBatch(l.settled, k)
	} else {
		s.cores[i].AccountSkipped(k)
	}
	l.settled = through
}

// touchCore settles core i through the cycle before the current one and
// marks it stale: an event is about to change its state (settle before
// touch), after which its wake must be recomputed.
func (s *System) touchCore(i int) {
	s.settleCore(i, s.clock-1)
	s.lazy[i].stale = true
}

// retiredThrough returns the exact total retired instruction count at
// the end of cycle e, counting each lazy batch's cycles up to e in
// closed form (cpu.Core.BatchRetired). Every batch still covers e.
func (s *System) retiredThrough(e int64) int64 {
	var total int64
	for i, c := range s.cores {
		total += c.Retired
		if l := &s.lazy[i]; l.batch && l.settled < e {
			total += c.BatchRetired(e - l.settled)
		}
	}
	return total
}

const maxInt64 = int64(1<<63 - 1)

// busTick executes one bus boundary exactly as the dense loop would:
// drain buffered requests into the controller queues, then tick every
// controller that is either due (its next-work probe has arrived) or
// freshly fed by the drain. Ticking the others would be a no-op in the
// dense loop too, so skipping them is bit-identical.
func (s *System) busTick(busNow int64) {
	s.adapter.drain(busNow)
	for i, ctrl := range s.ctrls {
		if s.ctrlWake[i] > busNow && !s.adapter.enqueued[i] {
			continue
		}
		s.ctrlWake[i] = ctrl.Tick(busNow, s.busSched)
	}
}

// nextBusWork returns the next CPU cycle at which the memory system needs
// a bus tick: the earliest controller next-work probe, or, while the
// adapter still buffers requests that must retry entering a full
// controller queue, the first bus boundary after cycle last. last is the
// current cycle, or the boundary the memory-only loop just ticked: that
// loop does not advance the clock, so a retry measured from the clock
// would tick the same bus cycle again.
func (s *System) nextBusWork(cpb, last int64) int64 {
	next := maxInt64
	for _, w := range s.ctrlWake {
		if w < next {
			next = w
		}
	}
	if next != maxInt64 {
		next *= cpb
	}
	if len(s.adapter.pending) > 0 {
		if b := (last/cpb + 1) * cpb; b < next {
			next = b
		}
	}
	return next
}
