package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"synpa/internal/apps"
	"synpa/internal/obs"
	"synpa/internal/perfstat"
	"synpa/internal/pmu"
	"synpa/internal/predcache"
	"synpa/internal/smtcore"
)

// layerMetrics lists every per-layer metric with its unit. A traced run
// reports all of them; a layer the workload does not exercise reads 0.
// BENCHMARK.json's per_layer list mirrors this table.
var layerMetrics = []struct{ name, unit string }{
	{"smtcore.step_share", "ratio"},
	{"smtcore.span_share", "ratio"},
	{"smtcore.ff_share", "ratio"},
	{"smtcore.smt2.ns_per_cycle", "ns"},
	{"smtcore.smt4.ns_per_cycle", "ns"},
	{"machine.slices", "count"},
	{"machine.rebinds", "count"},
	{"machine.us_per_slice", "us"},
	{"fleet.dispatch_s", "s"},
	{"fleet.dispatched", "count"},
	{"fleet.workers_speedup", "ratio"},
	{"admission.deferred_share", "ratio"},
	{"admission.queue_depth_p90", "count"},
	{"core.place_us_p50", "us"},
	{"core.place_us_p99", "us"},
	{"core.place_calls", "count"},
	{"core.policy_share", "ratio"},
	{"matching.s", "s"},
	{"predcache.invert.hit_ratio", "ratio"},
	{"predcache.invert.attempts", "count"},
	{"predcache.pair.hit_ratio", "ratio"},
	{"predcache.pair.attempts", "count"},
	{"predcache.match.hit_ratio", "ratio"},
	{"predcache.match.attempts", "count"},
	{"train.s", "s"},
	{"train.pairs", "count"},
	{"serve.decode_us", "us"},
	{"serve.validate_us", "us"},
	{"serve.place_us", "us"},
	{"serve.encode_us", "us"},
	{"serve.server_place_us_p50", "us"},
	{"serve.untracked_share", "ratio"},
	{"serve.rejected", "count"},
	{"serve.errors", "count"},
	{"loadgen.late_us_p99", "us"},
	{"loadgen.sent", "count"},
	{"loadgen.failed", "count"},
	{"obs.trace_overhead", "ratio"},
	{"obs.spans", "count"},
	{"bench.self_s", "s"},
	{"train.self_s", "s"},
	{"machine.self_s", "s"},
	{"fleet.self_s", "s"},
	{"core.self_s", "s"},
	{"sched.self_s", "s"},
	{"smtcore.self_s", "s"},
	{"serve.self_s", "s"},
	{"loadgen.self_s", "s"},
}

// initLayers sets every per-layer metric to 0, so layers the workload does
// not exercise still appear in a traced run's output.
func (b *bench) initLayers() {
	for _, m := range layerMetrics {
		b.layer(m.name, 0, m.unit)
	}
}

// reportSelfTimes records each layer's self time from the trace, and the
// span count.
func (b *bench) reportSelfTimes() {
	self := b.tr.selfTimes()
	for _, m := range layerMetrics {
		if layer, ok := strings.CutSuffix(m.name, ".self_s"); ok {
			b.layer(m.name, self[layer], "s")
		}
	}
	b.layer("obs.spans", float64(b.tr.count()), "count")
}

// counter reads a registry counter.
func counter(reg *obs.Registry, name string) int64 { return reg.Counter(name).Value() }

// simCycles is the simulated core-cycles the registry has counted across
// the three engine tiers: exact reference steps, spans and fast-forward.
func simCycles(reg *obs.Registry) int64 {
	return counter(reg, "smtcore.step_cycles") + counter(reg, "smtcore.span_cycles") + counter(reg, "smtcore.ff_cycles")
}

// reportEngineShares records the share of simulated cycles each smtcore
// tier executed, from the engines' own registry counters.
func (b *bench) reportEngineShares(reg *obs.Registry) {
	total := float64(simCycles(reg))
	b.layer("smtcore.step_share", ratio(float64(counter(reg, "smtcore.step_cycles")), total), "ratio")
	b.layer("smtcore.span_share", ratio(float64(counter(reg, "smtcore.span_cycles")), total), "ratio")
	b.layer("smtcore.ff_share", ratio(float64(counter(reg, "smtcore.ff_cycles")), total), "ratio")
	b.layer("machine.slices", float64(counter(reg, "machine.slices")), "count")
	b.layer("machine.rebinds", float64(counter(reg, "policy.rebinds")), "count")
}

// reportPhases records the perfstat phases the traced run enabled.
func (b *bench) reportPhases() {
	ph := perfstat.PhaseSeconds()
	b.layer("matching.s", ph["matching"], "s")
	b.layer("fleet.dispatch_s", ph["dispatch"], "s")
}

// cacheTraffic sums memo statistics.
type cacheTraffic struct{ invert, pair, match predcache.Stats }

func (c *cacheTraffic) add(inv, pair, match predcache.Stats) {
	c.invert.Hits += inv.Hits
	c.invert.Misses += inv.Misses
	c.pair.Hits += pair.Hits
	c.pair.Misses += pair.Misses
	c.match.Hits += match.Hits
	c.match.Misses += match.Misses
}

func (b *bench) reportCache(c cacheTraffic) {
	for _, m := range []struct {
		name string
		s    predcache.Stats
	}{{"invert", c.invert}, {"pair", c.pair}, {"match", c.match}} {
		n := m.s.Hits + m.s.Misses
		b.layer("predcache."+m.name+".hit_ratio", ratio(float64(m.s.Hits), float64(n)), "ratio")
		b.layer("predcache."+m.name+".attempts", float64(n), "count")
	}
}

// reportPlaceLatency records the policy's decision latencies.
func (b *bench) reportPlaceLatency(lat []time.Duration) {
	us := micros(lat)
	b.layer("core.place_us_p50", quantile(us, 0.50), "us")
	b.layer("core.place_us_p99", quantile(us, 0.99), "us")
	b.layer("core.place_calls", float64(len(us)), "count")
}

// microCycles is how many cycles the smtcore microbenchmark steps a core.
const microCycles = 2_000_000

// reportCoreMicro steps a fixed co-runner set — the first SMT-level apps
// of the pool, fixed seeds — through smtcore.New for microCycles cycles at
// SMT2 and SMT4 and records the median CPU nanoseconds per cycle of three
// runs each.
func (b *bench) reportCoreMicro() error {
	ms, err := poolModels()
	if err != nil {
		return err
	}
	for _, level := range []int{2, 4} {
		var ns []float64
		for rep := 0; rep < 3; rep++ {
			ns = append(ns, b.coreRun(ms, level))
		}
		b.layer(fmt.Sprintf("smtcore.smt%d.ns_per_cycle", level), median(ns), "ns")
	}
	return nil
}

func (b *bench) coreRun(ms []*apps.Model, level int) float64 {
	cfg := smtcore.DefaultConfig()
	cfg.SMTLevel = level
	c := smtcore.New(0, cfg)
	c.SetFastForward(true)
	for slot := 0; slot < level; slot++ {
		bank := &pmu.Bank{}
		bank.Enable()
		c.Bind(slot, apps.NewInstance(ms[slot], uint64(slot+1)), bank)
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0, t0 := threadCPU(), time.Now()
	c.Run(microCycles)
	t1, c1 := time.Now(), threadCPU()
	b.tr.record("smtcore.Core.Run", 0, 0, 0, 0, t0, t1)
	return float64((c1 - c0).Nanoseconds()) / microCycles
}
