package main

import (
	"fmt"
	"time"

	"synpa/internal/core"
	"synpa/internal/machine"
	"synpa/internal/predcache"
)

// placeLog collects one policy instance's placement calls: the CPU time
// of each call, the wall time they took in total and the first infeasible
// placement, if any. Engines call a policy from one goroutine at a time,
// on the goroutine that called the engine, so a log needs no lock.
type placeLog struct {
	lat  []time.Duration
	wall time.Duration
	err  error
}

// observe records one call: its CPU time and wall time, and whether the
// returned placement is feasible at the state's SMT level.
func (l *placeLog) observe(cpu, wall time.Duration, st *machine.QuantumState, pl machine.Placement) {
	l.lat = append(l.lat, cpu)
	l.wall += wall
	err := pl.Validate(st.NumCores, st.ThreadsPerCore())
	if err == nil && len(pl) != st.NumApps {
		err = fmt.Errorf("placement has %d entries for %d apps", len(pl), st.NumApps)
	}
	if err != nil && l.err == nil {
		l.err = fmt.Errorf("quantum %d: %w", st.Quantum, err)
	}
}

// spanCtx names where a policy's spans hang in the trace: the span of the
// engine call that invokes it (machine.Run, fleet.Run) and its request id.
type spanCtx struct {
	tr     *tracer
	parent int64
	req    int64
}

// timedSYNPA decorates the SYNPA policy with a timer and a feasibility
// check around every decision. It decides through its own arena with
// Policy.PlaceR, which is the same call Policy.Place makes through the
// policy's default arena, so its placements are the policy's; it exposes
// that arena's memo traffic through CacheStats so the engines' predcache
// counters keep working. The embedded policy supplies SetSharedCache and
// SharedCache, so a fleet can still install its shared memo.
type timedSYNPA struct {
	*core.Policy
	arena *core.Arena
	log   placeLog
	sp    *spanCtx
}

func newTimedSYNPA(p *core.Policy, sp *spanCtx) *timedSYNPA {
	return &timedSYNPA{Policy: p, sp: sp}
}

func (t *timedSYNPA) Place(st *machine.QuantumState) machine.Placement {
	if t.arena == nil {
		// Built on first use, after any SetSharedCache from the engine.
		t.arena = t.Policy.NewArena()
	}
	c0, t0 := threadCPU(), time.Now()
	pl := t.Policy.PlaceR(t.arena, st)
	t1, c1 := time.Now(), threadCPU()
	t.sp.tr.record("core.Policy.Place", 0, t.sp.parent, t.sp.req, 0, t0, t1)
	t.log.observe(c1-c0, t1.Sub(t0), st, pl)
	return pl
}

// CacheStats reports the decorator's arena memo traffic.
func (t *timedSYNPA) CacheStats() (invert, pair predcache.Stats) {
	if t.arena == nil {
		return predcache.Stats{}, predcache.Stats{}
	}
	return t.arena.CacheStats()
}

// matchStats reports the decorator's arena matching-memo traffic.
func (t *timedSYNPA) matchStats() predcache.Stats {
	if t.arena == nil {
		return predcache.Stats{}
	}
	return t.arena.MatchStats()
}

// timedPolicy decorates any other policy (the Linux baseline) with the
// same timer and feasibility check.
type timedPolicy struct {
	inner machine.Policy
	log   placeLog
	sp    *spanCtx
}

func (t *timedPolicy) Name() string { return t.inner.Name() }

func (t *timedPolicy) Place(st *machine.QuantumState) machine.Placement {
	c0, t0 := threadCPU(), time.Now()
	pl := t.inner.Place(st)
	t1, c1 := time.Now(), threadCPU()
	t.sp.tr.record("sched.Linux.Place", 0, t.sp.parent, t.sp.req, 0, t0, t1)
	t.log.observe(c1-c0, t1.Sub(t0), st, pl)
	return pl
}
