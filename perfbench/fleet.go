package main

import (
	"fmt"
	"runtime"
	"time"

	"synpa/internal/core"
	"synpa/internal/fleet"
	"synpa/internal/machine"
	"synpa/internal/obs"
	"synpa/internal/perfstat"
	"synpa/internal/predcache"
	"synpa/internal/workload"
)

// fleet-smt4: an open-system Poisson stream into a small SMT4 fleet with
// interference-aware dispatch, per-machine SYNPA, one shared prediction
// cache and two fleet workers. The seed derives every stream's arrivals,
// application picks and application streams.
const (
	fleetMachines = 4
	fleetCores    = 2
	fleetLevel    = 4
	fleetWorkers  = 2
	fleetStreams  = 8
	fleetJobs     = 96
	// fleetGapQuanta is the mean inter-arrival gap in quanta: close to
	// the fleet's service capacity, so queues form and drain.
	fleetGapQuanta = 0.6
	fleetWork      = 0.25
)

type fleetOp struct {
	name string
	seed uint64
}

type fleetSetup struct {
	model *core.Model
	tc    *workload.TargetCache
	ops   []fleetOp
}

func setupFleet(b *bench) (*fleetSetup, error) {
	model, err := b.trainModel()
	if err != nil {
		return nil, err
	}
	tc := workload.NewTargetCache(machineConfig(fleetCores, fleetLevel), refQuanta, canonicalSeed)
	if err := warmPool(tc); err != nil {
		return nil, err
	}
	s := &fleetSetup{model: model, tc: tc}
	for i := 0; i < fleetStreams; i++ {
		name := fmt.Sprintf("stream%d", i)
		s.ops = append(s.ops, fleetOp{name, mixSeed(b.seed, name)})
	}
	return s, nil
}

// fleetRun is the outcome of one fleet.Run.
type fleetRun struct {
	simExec
	rep    *fleet.Report
	digest string
	policy time.Duration
	cache  cacheTraffic
	err    error
}

// execFleet streams one op's jobs through fleet.Run at the given worker
// count, timing it from outside and checking that every job finishes and
// every placement is feasible at SMT4.
func (b *bench) execFleet(s *fleetSetup, op fleetOp, workers int, reg *obs.Registry, parent, req int64) fleetRun {
	var out fleetRun
	mc := machineConfig(fleetCores, fleetLevel)
	q := float64(quantumCycles)
	stream := workload.PoissonStream(op.name, op.seed, appPool, fleetJobs, fleetGapQuanta*q, fleetWork)
	sp := &spanCtx{tr: b.tr, parent: b.tr.id(), req: req}
	var pols []*timedSYNPA
	d := newDigest()
	cfg := fleet.Config{
		Machines: fleetMachines,
		Machine:  mc,
		NewPolicy: func(int) machine.Policy {
			p := newTimedSYNPA(core.MustPolicy(s.model, core.PolicyOptions{}), sp)
			pols = append(pols, p)
			return p
		},
		Dispatch:    fleet.DispatchInterference,
		Model:       s.model,
		Seed:        op.seed,
		MaxCycles:   maxQuanta * quantumCycles,
		Workers:     workers,
		SharedCache: predcache.NewShared(predcache.Options{}, 0),
		OnJobDone: func(m int, o machine.JobOutcome) {
			d.i64(int64(m))
			d.i64(int64(o.ID))
			d.str(o.Name)
			d.u64(o.ArriveAt)
			d.u64(o.AdmittedAt)
			d.u64(o.FinishAt)
			d.u64(o.Retired)
		},
		Obs: &obs.Observer{Reg: reg},
	}
	src := fleet.NewTraceSource(s.tc, stream, mc.Core.DispatchWidth)
	cyc0 := simCycles(reg)
	b.calibrate()
	c0, t0 := processCPU(), time.Now()
	rep, err := fleet.Run(cfg, src)
	t1, c1 := time.Now(), processCPU()
	b.tr.record("fleet.Run", sp.parent, parent, req, 0, t0, t1)
	out.wall, out.cpu = t1.Sub(t0), c1-c0
	if !b.traced {
		b.notePeak() // the shared cache and the policies are still referenced
		runtime.KeepAlive(cfg)
		runtime.KeepAlive(pols)
	}
	out.cycles = simCycles(reg) - cyc0
	var invalid error
	for _, p := range pols {
		out.lat = append(out.lat, p.log.lat...)
		out.policy += p.log.wall
		inv, pair := p.CacheStats()
		out.cache.add(inv, pair, p.matchStats())
		if invalid == nil {
			invalid = p.log.err
		}
	}
	switch {
	case err != nil:
		out.err = err
	case !rep.AllCompleted:
		out.err = fmt.Errorf("%s: %d of %d jobs unfinished", op.name, rep.Unfinished, rep.Jobs)
	case invalid != nil:
		out.err = fmt.Errorf("%s: infeasible placement: %w", op.name, invalid)
	}
	if out.err != nil {
		return out
	}
	out.rep = rep
	out.digest = fleetDigest(rep, d.sum())
	return out
}

// fleetDigest hashes the fleet report and the completed jobs' outcomes.
// The prediction-cache hit/miss split is left out: with a shared cache it
// depends on worker scheduling, while every other field may not.
func fleetDigest(rep *fleet.Report, jobs string) string {
	d := newDigest()
	d.str(jobs)
	d.u64(rep.Jobs)
	d.u64(rep.Completed)
	d.u64(rep.Cycles)
	d.i64(int64(rep.Slices))
	d.i64(int64(rep.Deferred))
	d.i64(int64(rep.PeakLive))
	d.f64(rep.MeanLive)
	d.f64(rep.MeanResponseCycles)
	d.f64(rep.P95ResponseCycles)
	d.f64(rep.ANTT)
	d.f64(rep.STP)
	d.f64(rep.WeightedSTP)
	d.u64(rep.MinMachineJobs)
	d.u64(rep.MaxMachineJobs)
	return d.sum()
}

func runFleet(b *bench) error {
	// fleet.Run coordinates, and calls the policies, on this goroutine:
	// lock it to its thread so the thread CPU clock times the policy calls.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	s, err := repeatSetup(b, func() (*fleetSetup, error) { return setupFleet(b) })
	if err != nil {
		return err
	}
	b.config["fleet"] = fmt.Sprintf("%d machines x %d cores x SMT%d, interference dispatch, shared predcache", fleetMachines, fleetCores, fleetLevel)
	b.config["streams"] = fmt.Sprintf("%d Poisson streams x %d jobs, mean gap %.2f quanta, work %.2f", fleetStreams, fleetJobs, fleetGapQuanta, fleetWork)
	b.config["fleet_workers"] = fleetWorkers
	if b.traced {
		err = b.tracedFleet(s)
	} else {
		err = b.measureFleet(s)
	}
	if err != nil {
		return err
	}
	return b.fleetCanary(s)
}

func (b *bench) checkFleet(seen map[int]string, i int, op fleetOp, r fleetRun) {
	err := r.err
	if err == nil {
		if first, ok := seen[i]; !ok {
			seen[i] = r.digest
		} else if first != r.digest {
			err = fmt.Errorf("%s: digest %s differs from its first run's %s", op.name, r.digest, first)
		}
	}
	b.check("runs", err)
}

// measureFleet cycles through the streams until the window closes.
func (b *bench) measureFleet(s *fleetSetup) error {
	reg := obs.NewRegistry()
	tally := newSimTally(len(s.ops))
	reps := make([]*fleet.Report, len(s.ops))
	seen := map[int]string{}
	start := time.Now()
	for k := 0; time.Since(start) < b.window; k++ {
		i := k % len(s.ops)
		r := b.execFleet(s, s.ops[i], fleetWorkers, reg, 0, int64(k))
		b.checkFleet(seen, i, s.ops[i], r)
		if r.err != nil {
			continue
		}
		tally.add(i, r.simExec)
		reps[i] = r.rep
	}
	b.reportSim(tally)
	var antt, stp []float64
	for _, rep := range reps {
		if rep != nil {
			antt = append(antt, rep.ANTT)
			stp = append(stp, rep.STP)
		}
	}
	b.named("antt", geomean(antt), "x", len(antt))
	b.named("stp", geomean(stp), "x", len(stp))
	return nil
}

// tracedFleet runs one untraced pass at two workers and one at one worker
// (fleet.workers_speedup), then the two-worker pass traced with the
// perfstat phases on, and reports the layers.
func (b *bench) tracedFleet(s *fleetSetup) error {
	b.initLayers()
	seen := map[int]string{}
	// pass returns its wall time (for the worker speed-up) and its
	// process CPU time (for the tracing overhead).
	pass := func(workers int, reg *obs.Registry) (time.Duration, time.Duration, []fleetRun) {
		root := b.tr.id()
		runs := make([]fleetRun, len(s.ops))
		c0, t0 := processCPU(), time.Now()
		for i, op := range s.ops {
			runs[i] = b.execFleet(s, op, workers, reg, root, int64(i))
			b.checkFleet(seen, i, op, runs[i])
		}
		t1 := time.Now()
		b.tr.record("bench.pass", root, 0, 0, 0, t0, t1)
		return t1.Sub(t0), processCPU() - c0, runs
	}

	b.tr.on = false
	plainWall, plainCPU, _ := pass(fleetWorkers, obs.NewRegistry())
	serialWall, _, _ := pass(1, obs.NewRegistry())
	b.tr.on = true
	perfstat.EnablePhases(true)
	reg := obs.NewRegistry()
	_, tracedCPU, runs := pass(fleetWorkers, reg)
	dispatch := perfstat.PhaseSeconds()["dispatch"]
	b.reportPhases()
	perfstat.EnablePhases(false)

	var (
		lat           []time.Duration
		cache         cacheTraffic
		runWall, polT time.Duration
		jobs          uint64
		deferred      int
	)
	for _, r := range runs {
		runWall += r.wall
		polT += r.policy
		lat = append(lat, r.lat...)
		cache.add(r.cache.invert, r.cache.pair, r.cache.match)
		if r.rep != nil {
			jobs += r.rep.Jobs
			deferred += r.rep.Deferred
		}
	}
	b.reportEngineShares(reg)
	slices := float64(counter(reg, "machine.slices"))
	b.layer("machine.us_per_slice", ratio(runWall.Seconds()-polT.Seconds()-dispatch, slices)*1e6, "us")
	b.layer("fleet.dispatched", float64(counter(reg, "fleet.dispatched")), "count")
	b.layer("fleet.workers_speedup", ratio(serialWall.Seconds(), plainWall.Seconds()), "ratio")
	b.layer("admission.deferred_share", ratio(float64(deferred), float64(jobs)), "ratio")
	b.layer("admission.queue_depth_p90", reg.Snapshot().Histograms["admission.queue_depth"].P90, "count")
	b.reportPlaceLatency(lat)
	b.layer("core.policy_share", ratio(polT.Seconds(), runWall.Seconds()), "ratio")
	b.reportCache(cache)
	b.reportTraining()
	b.layer("obs.trace_overhead", ratio(tracedCPU.Seconds(), plainCPU.Seconds())-1, "ratio")
	if err := b.reportCoreMicro(); err != nil {
		return err
	}
	b.reportSelfTimes()
	return nil
}

// fleetCanary reruns a fixed stream (the canonical seed) at two workers
// and checks it against the pinned digest.
func (b *bench) fleetCanary(s *fleetSetup) error {
	r := b.execFleet(s, fleetOp{"canary", canonicalSeed}, fleetWorkers, obs.NewRegistry(), 0, -1)
	err := r.err
	if err == nil {
		err = pinned("fleet canary", r.digest, pinnedFleetCanary)
	}
	b.check("canary-digest", err)
	return nil
}
