package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"synpa/internal/core"
	"synpa/internal/machine"
	"synpa/internal/predcache"
	"synpa/internal/serve"
)

// place-replay: in-process core.Policy.PlaceR at two goroutines replays a
// small recorded query log for many passes through one shared prediction
// cache, after an untimed warm-up pass. Each call resets its arena's
// smoothing history first, as the serving path does, so every answer must
// equal the in-process serve.PlaceOne answer to the same query.
const (
	// replayLog is the log's length: as long as the shared memo holds
	// without a reset (each of its shards clears at 2048 entries).
	replayLog        = 512
	replayGoroutines = 2
	// replayWindows is how many sub-windows the measurement window is
	// split into; the figures are the medians over the sub-windows.
	replayWindows = 10
	// tracedPasses is how many passes over the log each half of a traced
	// run makes (one span per call).
	tracedPasses = 200
)

type replaySetup struct {
	model    *core.Model
	states   []*machine.QuantumState
	expected []machine.Placement
}

func setupReplay(b *bench) (*replaySetup, error) {
	model, bodies, answers, err := setupQueries(b, replayLog)
	if err != nil {
		return nil, err
	}
	s := &replaySetup{model: model}
	for i := range bodies {
		var q serve.PlaceRequest
		if err := json.Unmarshal(bodies[i], &q); err != nil {
			return nil, err
		}
		var r serve.PlaceResponse
		if err := json.Unmarshal(answers[i], &r); err != nil {
			return nil, err
		}
		s.states = append(s.states, stateOf(&q))
		s.expected = append(s.expected, r.Placement)
	}
	return s, nil
}

// replayer is one goroutine's share of the log and what it measured.
type replayer struct {
	arena *core.Arena
	// best is each query's smallest CPU time so far (indexed by query;
	// the goroutine's own queries only). Every pass replays the same
	// queries, so the fastest execution is the one least disturbed by
	// interrupts and neighbours.
	best   []time.Duration
	calls  int64
	failed int64
	err    error
}

// pass replays the goroutine's share of the log once: queries g, g+G, ...
func (r *replayer) pass(b *bench, p *core.Policy, s *replaySetup, g int, parent int64, timed bool) {
	for qi := g; qi < len(s.states); qi += replayGoroutines {
		st := *s.states[qi] // the recorded slices are read-only to PlaceR
		r.arena.Reset()
		c0, t0 := threadCPU(), time.Now()
		pl := p.PlaceR(r.arena, &st)
		t1, c1 := time.Now(), threadCPU()
		b.tr.record("core.Policy.PlaceR", 0, parent, int64(qi), g, t0, t1)
		if timed && (r.best[qi] == 0 || c1-c0 < r.best[qi]) {
			r.best[qi] = c1 - c0
		}
		r.calls++
		if !slices.Equal(pl, s.expected[qi]) {
			r.failed++
			if r.err == nil {
				r.err = fmt.Errorf("query %d: PlaceR answered %v, PlaceOne %v", qi, pl, s.expected[qi])
			}
		}
	}
}

// newReplay builds the policy with its shared cache and one warmed arena
// per goroutine.
func (b *bench) newReplay(s *replaySetup) (*core.Policy, []*replayer, error) {
	p, err := core.NewPolicy(s.model, core.PolicyOptions{})
	if err != nil {
		return nil, nil, err
	}
	p.SetSharedCache(predcache.NewShared(predcache.Options{}, 0))
	rs := make([]*replayer, replayGoroutines)
	b.parallel(func(g int) {
		rs[g] = &replayer{arena: p.NewArena(), best: make([]time.Duration, len(s.states))}
		rs[g].pass(b, p, s, g, 0, false)
	})
	return p, rs, nil
}

// parallel runs fn on each replay goroutine, each locked to its thread so
// the thread CPU clock times its calls, and waits for all of them.
func (b *bench) parallel(fn func(g int)) {
	var wg sync.WaitGroup
	for g := 0; g < replayGoroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			fn(g)
		}(g)
	}
	wg.Wait()
}

// settle counts every call the replayers made against the gate and clears
// their counts.
func (b *bench) settle(rs []*replayer) {
	g := b.gate("placements")
	for _, r := range rs {
		g.Attempted += r.calls
		g.Failed += r.failed
		if r.err != nil && g.Detail == "" {
			g.Detail = r.err.Error()
		}
		r.calls, r.failed, r.err = 0, 0, nil
	}
}

func runReplay(b *bench) error {
	s, err := repeatSetup(b, func() (*replaySetup, error) { return setupReplay(b) })
	if err != nil {
		return err
	}
	b.config["log"] = fmt.Sprintf("%d recorded SMT2 4-core queries", len(s.states))
	b.config["goroutines"] = replayGoroutines
	b.config["cache"] = "one predcache.Shared, one arena per goroutine"
	if b.traced {
		return b.tracedReplay(s)
	}
	return b.measureReplay(s)
}

// measureReplay splits the window into sub-windows; in each, both
// goroutines replay full passes until the sub-window's deadline.
func (b *bench) measureReplay(s *replaySetup) error {
	p, rs, err := b.newReplay(s)
	if err != nil {
		return err
	}
	b.settle(rs)
	var qps, cpuQPS []float64
	var calls int64
	sub := b.window / replayWindows
	for w := 0; w < replayWindows; w++ {
		b.parallel(func(int) { b.calibrate() })
		c0, t0 := processCPU(), time.Now()
		deadline := t0.Add(sub)
		b.parallel(func(g int) {
			for time.Now().Before(deadline) {
				rs[g].pass(b, p, s, g, 0, true)
			}
		})
		wall, cpu := time.Since(t0), processCPU()-c0
		var n int64
		for _, r := range rs {
			n += r.calls
		}
		qps = append(qps, float64(n)/wall.Seconds())
		cpuQPS = append(cpuQPS, float64(n)/cpu.Seconds())
		calls += n
		b.notePeak()
		b.settle(rs)
	}
	us := micros(bestTimes(rs))
	k := b.scale()
	q, p50, p99 := median(cpuQPS)/k, quantile(us, 0.50)*k, quantile(us, 0.99)*k
	b.e2e("throughput_per_cpu_s", q, "1/cpu_s")
	b.e2e("op_cpu_us_p50", p50, "cpu_us")
	b.e2e("op_cpu_us_p99", p99, "cpu_us")
	b.named("place_per_cpu_s", q, "1/cpu_s", int(calls))
	b.named("place_qps", median(qps), "1/s", int(calls))
	b.named("place_cpu_us_p50", p50, "cpu_us", int(calls))
	b.named("place_cpu_us_p99", p99, "cpu_us", int(calls))
	return nil
}

// tracedReplay replays a fixed number of passes untraced, then the same
// passes with a span per call, and reports the layers; the tracing
// overhead compares the two halves' process CPU time.
func (b *bench) tracedReplay(s *replaySetup) error {
	b.initLayers()
	run := func() (time.Duration, []*replayer, error) {
		p, rs, err := b.newReplay(s)
		if err != nil {
			return 0, nil, err
		}
		b.settle(rs)
		stats := make([]cacheTraffic, replayGoroutines)
		for g, r := range rs {
			inv, pair := r.arena.CacheStats()
			stats[g].add(inv, pair, r.arena.MatchStats())
		}
		c0 := processCPU()
		b.parallel(func(g int) {
			root := b.tr.id()
			t1 := time.Now()
			for i := 0; i < tracedPasses; i++ {
				rs[g].pass(b, p, s, g, root, true)
			}
			b.tr.record("bench.pass", root, 0, 0, g, t1, time.Now())
		})
		cpu := processCPU() - c0
		var c cacheTraffic
		for g, r := range rs {
			inv, pair := r.arena.CacheStats()
			c.add(sub(inv, stats[g].invert), sub(pair, stats[g].pair), sub(r.arena.MatchStats(), stats[g].match))
		}
		b.reportCache(c)
		return cpu, rs, nil
	}
	b.tr.on = false
	plain, rs, err := run()
	if err != nil {
		return err
	}
	b.settle(rs)
	b.tr.on = true
	traced, rs, err := run()
	if err != nil {
		return err
	}
	b.reportPlaceLatency(bestTimes(rs))
	b.settle(rs)
	b.layer("obs.trace_overhead", ratio(traced.Seconds(), plain.Seconds())-1, "ratio")
	b.reportTraining()
	b.reportSelfTimes()
	return nil
}

// bestTimes gathers each query's fastest execution from the goroutine
// that replays it.
func bestTimes(rs []*replayer) []time.Duration {
	var out []time.Duration
	for g, r := range rs {
		for qi := g; qi < len(r.best); qi += replayGoroutines {
			out = append(out, r.best[qi])
		}
	}
	return out
}

// sub returns the traffic between two snapshots of the same counters.
func sub(after, before predcache.Stats) predcache.Stats {
	return predcache.Stats{Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses}
}
