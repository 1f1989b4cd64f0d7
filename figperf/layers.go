package main

import (
	"fmt"
	"regexp"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricName is the charset BENCHMARK.json allows for a metric name.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metricSet builds a result's metrics, refusing names outside the
// charset or used twice.
type metricSet map[string]metric

func (m metricSet) set(name, unit string, v float64) {
	if !metricName.MatchString(name) {
		panic(fmt.Sprintf("metric name %q outside [A-Za-z0-9_.-]", name))
	}
	if _, dup := m[name]; dup {
		panic(fmt.Sprintf("metric %q set twice", name))
	}
	m[name] = metric{Value: v, Unit: unit}
}

// ratio is num/den, or 0 when there is nothing to divide by.
func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// nsPer is host nanoseconds per modelled event: a layer's self time over
// the number of events it modelled in the same work, scaled by per (1
// for per event, 1000 for per thousand). Zero events report 0.
func nsPer(selfNS float64, events int64, per float64) float64 {
	if events == 0 {
		return 0
	}
	return selfNS / (float64(events) / per)
}

// profiledLayers are the layers with a self_share metric: the internal/*
// packages that do the workloads' work, plus runtime for every frame
// outside repro/internal.
var profiledLayers = []string{
	"sim", "cpu", "cache", "memctrl", "dram", "core", "workload", "stats",
	"harness", "expcache", otherLayer,
}

// layerInputs is everything the per-layer metrics derive from.
type layerInputs struct {
	selfNS   map[string]int64 // profiled self time per layer, all traced passes
	passes   int              // traced passes the profile covers
	work     passWork         // modelled work of one pass
	records  int64            // trace records read, timed around Next
	recordNS int64            // host time inside those Next calls
	fig7     passStats        // a traced fig7-cold pass (zero elsewhere)
	allocMB  float64          // heap allocated per traced pass
	gcCycles float64          // GC cycles per traced pass
	overhead float64          // traced over untraced timed host time
}

// layerMetrics derives the per-layer metrics. Host time per modelled
// event divides a layer's self time per pass by the events of one pass.
func layerMetrics(in layerInputs) metricSet {
	m := metricSet{}
	var total int64
	for _, ns := range in.selfNS {
		total += ns
	}
	for _, l := range profiledLayers {
		m.set(l+".self_share", "fraction", ratio(in.selfNS[l], total))
	}
	self := func(layer string) float64 {
		if in.passes == 0 {
			return 0
		}
		return float64(in.selfNS[layer]) / float64(in.passes)
	}
	v := in.work.V
	m.set("sim.ns_per_kcycle", "ns", nsPer(self("sim"), v[cCycles], 1000))
	m.set("cpu.ns_per_kinst", "ns", nsPer(self("cpu"), v[cInsts], 1000))
	m.set("cache.ns_per_access", "ns", nsPer(self("cache"), v[cCacheAccesses], 1))
	m.set("memctrl.ns_per_req", "ns", nsPer(self("memctrl"), v[cMemReads]+v[cMemWrites], 1))
	m.set("dram.ns_per_cmd", "ns", nsPer(self("dram"), v[cDRAMCmds], 1))
	m.set("core.ns_per_lookup", "ns", nsPer(self("core"), v[cLookups], 1))
	m.set("workload.ns_per_record", "ns", nsPer(float64(in.recordNS), in.records, 1))

	count := func(name string, n int64) { m.set(name, "count", float64(n)) }
	count("sim.cycles", v[cCycles])
	count("cpu.insts", v[cInsts])
	count("cpu.window_full_cycles", v[cWindowFull])
	count("cpu.load_stall_cycles", v[cLoadStalls])
	count("cache.accesses", v[cCacheAccesses])
	m.set("cache.llc_mpki", "1/kinst", 1000*ratio(v[cLLCMisses], v[cInsts]))
	count("cache.writebacks", v[cWriteBacks])
	count("cache.mshr_full_stalls", v[cMSHRFullStalls])
	count("memctrl.reads", v[cMemReads])
	count("memctrl.writes", v[cMemWrites])
	m.set("memctrl.read_lat_ns_p50", "ns", in.work.latP50NS)
	m.set("memctrl.read_lat_ns_p99", "ns", in.work.latP99NS)
	count("memctrl.write_drain_cycles", v[cWriteDrain])
	count("memctrl.queue_full_stalls", v[cQueueFullStalls])
	count("dram.cmds", v[cDRAMCmds])
	m.set("dram.row_hit_rate", "fraction", ratio(v[cRowHits], v[cRowAccess]))
	count("dram.reloc_busy_cycles", v[cRelocBusy])
	count("core.lookups", v[cLookups])
	m.set("core.hit_rate", "fraction", ratio(v[cIndramHits], v[cLookups]))
	count("core.insertions", v[cInsertions])
	count("core.evictions", v[cEvictions])

	f := in.fig7
	count("harness.systems_built", f.systemsBuilt)
	count("harness.systems_reused", f.systemsReused)
	count("harness.gangs_formed", f.gangs)
	count("expcache.misses", f.cache.Misses)
	count("expcache.mem_hits", f.cache.MemHits)
	count("expcache.stores", f.cache.Stores)
	m.set("model.fig7_fast_speedup_intensive", "x", f.fastSpeedup)

	m.set("runtime.alloc_mb", "MB", in.allocMB)
	m.set("runtime.gc_cycles", "count", in.gcCycles)
	m.set("trace.overhead", "x", in.overhead)
	return m
}
