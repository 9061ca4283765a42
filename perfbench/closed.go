package main

import (
	"fmt"
	"runtime"
	"time"

	"synpa/internal/core"
	"synpa/internal/machine"
	"synpa/internal/obs"
	"synpa/internal/perfstat"
	"synpa/internal/sched"
	"synpa/internal/workload"
	"synpa/internal/xrand"
)

// closed-smt2: the paper's §V-B closed methodology. The twenty 8-app
// be/fe/fb mixes run on four SMT2 cores under Linux and under SYNPA, each
// app relaunched until every one has retired its reference target. The
// seed derives every run's application streams; the mixes, targets and
// model are the suite's.

// streamsPerMix is how many application-stream seeds each mix runs with,
// like the suite's repetitions: more distinct runs make the decision-time
// percentiles depend less on any one seed's streams.
const streamsPerMix = 2

// closedOp is one workload run: a mix under one policy.
type closedOp struct {
	w       workload.Workload
	targets []uint64
	synpa   bool
	seed    uint64
}

func (op closedOp) label() string {
	if op.synpa {
		return fmt.Sprintf("%s/%x/SYNPA", op.w.Name, op.seed)
	}
	return fmt.Sprintf("%s/%x/Linux", op.w.Name, op.seed)
}

type closedSetup struct {
	model *core.Model
	ops   []closedOp
	// canary is a fixed run — mix fb2, both policies, the canonical
	// seed — whose digest is pinned.
	canary []closedOp
}

func setupClosed(b *bench) (*closedSetup, error) {
	model, err := b.trainModel()
	if err != nil {
		return nil, err
	}
	tc := workload.NewTargetCache(machineConfig(4, 2), refQuanta, canonicalSeed)
	mixes := workload.StandardSet(canonicalSeed)
	if err := tc.Warm(mixes, true); err != nil {
		return nil, err
	}
	s := &closedSetup{model: model}
	for _, w := range mixes {
		targets, err := tc.Targets(w)
		if err != nil {
			return nil, err
		}
		for rep := 0; rep < streamsPerMix; rep++ {
			// Both policies of a mix run the same application streams.
			seed := mixSeed(b.seed, fmt.Sprintf("%s/%d", w.Name, rep))
			s.ops = append(s.ops, closedOp{w, targets, false, seed}, closedOp{w, targets, true, seed})
		}
		if w.Name == "fb2" {
			s.canary = []closedOp{{w, targets, false, canonicalSeed}, {w, targets, true, canonicalSeed}}
		}
	}
	// A seed-shuffled execution order.
	xrand.New(b.seed).Shuffle(len(s.ops), func(i, j int) { s.ops[i], s.ops[j] = s.ops[j], s.ops[i] })
	return s, nil
}

// mixSeed derives a run's application-stream seed from the workload seed
// and the mix name.
func mixSeed(seed uint64, name string) uint64 {
	d := newDigest()
	d.u64(seed)
	d.str(name)
	return d.h.Sum64()
}

// closedRun is the outcome of one execution of a closedOp.
type closedRun struct {
	simExec
	tt     uint64
	digest string
	log    placeLog
	cache  cacheTraffic
	policy time.Duration // total wall time inside Policy.Place
	slices int64
	err    error
}

// execClosed runs one op through machine.Run, timing it from outside and
// checking that it completes with feasible placements.
func (b *bench) execClosed(model *core.Model, op closedOp, reg *obs.Registry, parent, req int64) closedRun {
	var out closedRun
	m, err := machine.New(machineConfig(4, 2))
	if err != nil {
		out.err = err
		return out
	}
	sp := &spanCtx{tr: b.tr, parent: b.tr.id(), req: req}
	var (
		pol machine.Policy
		syn *timedSYNPA
		lin *timedPolicy
	)
	if op.synpa {
		syn = newTimedSYNPA(core.MustPolicy(model, core.PolicyOptions{}), sp)
		pol = syn
	} else {
		lin = &timedPolicy{inner: sched.Linux{}, sp: sp}
		pol = lin
	}
	cyc0, sl0 := simCycles(reg), counter(reg, "machine.slices")
	b.calibrate()
	c0, t0 := processCPU(), time.Now()
	res, err := m.Run(op.w.Apps, op.targets, pol, machine.RunnerOptions{
		Seed:      op.seed,
		MaxQuanta: maxQuanta,
		Obs:       &obs.Observer{Reg: reg},
	})
	t1, c1 := time.Now(), processCPU()
	b.tr.record("machine.Run", sp.parent, parent, req, 0, t0, t1)
	out.wall, out.cpu = t1.Sub(t0), c1-c0
	if !b.traced {
		b.notePeak()
		runtime.KeepAlive(res)
		runtime.KeepAlive(pol)
	}
	out.cycles = simCycles(reg) - cyc0
	out.slices = counter(reg, "machine.slices") - sl0
	if syn != nil {
		out.log = syn.log
		out.lat = syn.log.lat
		inv, pair := syn.CacheStats()
		out.cache.add(inv, pair, syn.matchStats())
	} else {
		out.log = lin.log
	}
	out.policy = out.log.wall
	switch {
	case err != nil:
		out.err = err
	case !res.AllCompleted:
		out.err = fmt.Errorf("%s did not complete in %d quanta", op.label(), maxQuanta)
	case out.log.err != nil:
		out.err = fmt.Errorf("%s: infeasible placement: %w", op.label(), out.log.err)
	}
	if out.err != nil {
		return out
	}
	out.tt, _ = res.TurnaroundCycles()
	out.digest = closedDigest(res)
	return out
}

// closedDigest hashes everything a closed run produces: per-app targets,
// completion stamps, retired counts and IPCs, and every placement.
func closedDigest(res *machine.Result) string {
	d := newDigest()
	d.str(res.Policy)
	d.i64(int64(res.Quanta))
	d.u64(res.QuantumCycles)
	for _, a := range res.Apps {
		d.str(a.Name)
		d.u64(a.Target)
		d.u64(a.CompletedAtCycle)
		d.i64(int64(a.CompletedAtQuantum))
		d.u64(a.Retired)
		d.f64(a.IPC)
	}
	for _, p := range res.Placements {
		d.ints(p)
	}
	return d.sum()
}

func runClosed(b *bench) error {
	// Runs and their policy calls execute on this goroutine: lock it to
	// its thread so the thread CPU clock times the policy calls.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	s, err := repeatSetup(b, func() (*closedSetup, error) { return setupClosed(b) })
	if err != nil {
		return err
	}
	b.config["machine"] = "4 cores x SMT2, quantum 8000 cycles, reference 30 quanta"
	b.config["mixes"] = len(s.ops) / (2 * streamsPerMix)
	b.config["streams_per_mix"] = streamsPerMix
	b.config["goroutines"] = 1
	if b.traced {
		err = b.tracedClosed(s)
	} else {
		err = b.measureClosed(s)
	}
	if err != nil {
		return err
	}
	return b.closedCanary(s)
}

// closedDigests remembers each op's first digest; every later execution
// of the same op must reproduce it.
type closedDigests map[int]string

func (b *bench) checkClosed(seen closedDigests, i int, op closedOp, r closedRun) {
	err := r.err
	if err == nil {
		if first, ok := seen[i]; !ok {
			seen[i] = r.digest
		} else if first != r.digest {
			err = fmt.Errorf("%s: digest %s differs from its first run's %s", op.label(), r.digest, first)
		}
	}
	b.check("runs", err)
}

// measureClosed cycles through the ops until the window closes.
func (b *bench) measureClosed(s *closedSetup) error {
	reg := obs.NewRegistry()
	tally := newSimTally(len(s.ops))
	tts := make([]uint64, len(s.ops))
	seen := closedDigests{}
	start := time.Now()
	for k := 0; time.Since(start) < b.window; k++ {
		i := k % len(s.ops)
		r := b.execClosed(s.model, s.ops[i], reg, 0, int64(k))
		b.checkClosed(seen, i, s.ops[i], r)
		if r.err != nil {
			continue
		}
		tally.add(i, r.simExec)
		tts[i] = r.tt
	}
	b.reportSim(tally)
	speedup, mixes := ttSpeedup(s.ops, tts)
	b.named("tt_speedup_vs_linux", speedup, "x", mixes)
	return nil
}

// ttSpeedup is the geomean over the mix runs of Linux's turnaround time
// over SYNPA's, for every mix run (mix and stream seed) whose two runs
// both completed.
func ttSpeedup(ops []closedOp, tts []uint64) (float64, int) {
	type run struct {
		mix  string
		seed uint64
	}
	linux := map[run]uint64{}
	synpa := map[run]uint64{}
	for i, op := range ops {
		if tts[i] == 0 {
			continue
		}
		if op.synpa {
			synpa[run{op.w.Name, op.seed}] = tts[i]
		} else {
			linux[run{op.w.Name, op.seed}] = tts[i]
		}
	}
	var sp []float64
	for _, op := range ops {
		r := run{op.w.Name, op.seed}
		l, ok := linux[r]
		if s, both := synpa[r]; !op.synpa && ok && both {
			sp = append(sp, float64(l)/float64(s))
		}
	}
	return geomean(sp), len(sp)
}

// tracedClosed runs one untraced pass over every op, then the same pass
// traced with the perfstat phases on, and reports the layers.
func (b *bench) tracedClosed(s *closedSetup) error {
	b.initLayers()
	seen := closedDigests{}
	pass := func(reg *obs.Registry) (time.Duration, []closedRun) {
		root := b.tr.id()
		runs := make([]closedRun, len(s.ops))
		c0, t0 := processCPU(), time.Now()
		for i, op := range s.ops {
			runs[i] = b.execClosed(s.model, op, reg, root, int64(i))
			b.checkClosed(seen, i, op, runs[i])
		}
		b.tr.record("bench.pass", root, 0, 0, 0, t0, time.Now())
		return processCPU() - c0, runs
	}

	b.tr.on = false
	plain, _ := pass(obs.NewRegistry())
	b.tr.on = true
	perfstat.EnablePhases(true)
	reg := obs.NewRegistry()
	traced, runs := pass(reg)
	perfstat.EnablePhases(false)

	var (
		lat           []time.Duration
		cache         cacheTraffic
		runWall, polT time.Duration
		slices        int64
	)
	for i, r := range runs {
		runWall += r.wall
		polT += r.policy
		slices += r.slices
		if s.ops[i].synpa {
			lat = append(lat, r.log.lat...)
			cache.add(r.cache.invert, r.cache.pair, r.cache.match)
		}
	}
	b.reportEngineShares(reg)
	b.layer("machine.us_per_slice", ratio(float64((runWall-polT).Microseconds()), float64(slices)), "us")
	b.reportPlaceLatency(lat)
	b.layer("core.policy_share", ratio(polT.Seconds(), runWall.Seconds()), "ratio")
	b.reportPhases()
	b.reportCache(cache)
	b.reportTraining()
	b.layer("obs.trace_overhead", ratio(traced.Seconds(), plain.Seconds())-1, "ratio")
	if err := b.reportCoreMicro(); err != nil {
		return err
	}
	b.reportSelfTimes()
	return nil
}

// closedCanary reruns the fixed fb2 pair and checks it against the pinned
// digest, so a change to the simulator that shifts any result fails the
// gate whatever the seed.
func (b *bench) closedCanary(s *closedSetup) error {
	if len(s.canary) == 0 {
		return fmt.Errorf("mix fb2 missing from the standard set")
	}
	d := newDigest()
	var err error
	for _, op := range s.canary {
		r := b.execClosed(s.model, op, obs.NewRegistry(), 0, -1)
		if r.err != nil {
			err = r.err
			break
		}
		d.str(r.digest)
	}
	if err == nil {
		err = pinned("closed canary", d.sum(), pinnedClosedCanary)
	}
	b.check("canary-digest", err)
	return nil
}
