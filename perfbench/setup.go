package main

import (
	"bytes"
	"fmt"
	"time"

	"synpa/internal/apps"
	"synpa/internal/core"
	"synpa/internal/machine"
	"synpa/internal/pmu"
	"synpa/internal/train"
	"synpa/internal/workload"
	"synpa/internal/xrand"
)

// The simulated system is the paper's, scaled the way the repository's
// fast bench configuration scales it: every quantity SYNPA consumes is a
// per-cycle fraction, so a shorter quantum and reference interval keep
// the policy's behaviour while making one run cheap enough to repeat.
const (
	quantumCycles = 8_000
	refQuanta     = 30
	maxQuanta     = 20_000
	// canonicalSeed is the experiment suite's default seed: it fixes the
	// paper's twenty workload mixes and the reference measurements.
	canonicalSeed uint64 = 0x51A9A
)

// machineConfig returns the simulated machine with the given core count
// and SMT level. Runs are stepped serially on the calling goroutine.
func machineConfig(cores, level int) machine.Config {
	mc := machine.DefaultConfig()
	mc.QuantumCycles = quantumCycles
	mc.Cores = cores
	mc.Core.SMTLevel = level
	mc.Parallel = false
	return mc
}

// trainOptions is the training pipeline at the scaled configuration. Pair
// runs fan out over GOMAXPROCS goroutines.
func trainOptions() train.Options {
	to := train.DefaultOptions()
	to.Machine = machineConfig(4, 2)
	to.IsolatedQuanta = 50
	to.PairQuanta = 35
	to.Parallel = true
	return to
}

// trainModel runs train.Train on the paper's training set, traces it,
// records its time for train.s and checks the model against its pinned
// digest.
func (b *bench) trainModel() (*core.Model, error) {
	id := b.tr.id()
	t0 := time.Now()
	m, rep, err := train.Train(apps.TrainingSet(), trainOptions())
	t1 := time.Now()
	b.tr.record("train.Train", id, 0, 0, 0, t0, t1)
	if err != nil {
		return nil, fmt.Errorf("training: %w", err)
	}
	b.trainTimes = append(b.trainTimes, t1.Sub(t0).Seconds())
	b.trainPairs = rep.Pairs
	var buf bytes.Buffer
	if err := core.WriteModelJSON(&buf, m); err != nil {
		return nil, err
	}
	d := newDigest()
	d.bytes(buf.Bytes())
	b.check("model-digest", pinned("model", d.sum(), pinnedModelDigest))
	return m, nil
}

// reportTraining records the train layer's metrics.
func (b *bench) reportTraining() {
	b.layer("train.s", median(b.trainTimes), "s")
	b.layer("train.pairs", float64(b.trainPairs), "count")
}

// appPool is the application mix of the open-system streams (the
// repository's fleet pool: backend, frontend and mixed behaviour).
var appPool = []string{"mcf", "leela_r", "lbm_r", "gobmk", "cactuBSSN_r", "povray_r", "milc", "perlbench"}

func poolModels() ([]*apps.Model, error) {
	out := make([]*apps.Model, len(appPool))
	for i, name := range appPool {
		m, err := apps.ByName(name)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

// warmPool measures the pool's reference targets into tc.
func warmPool(tc *workload.TargetCache) error {
	ms, err := poolModels()
	if err != nil {
		return err
	}
	return tc.Warm([]workload.Workload{{Name: "pool", Apps: ms}}, true)
}

// queryRecorder wraps the policy of the recording run and deep-copies
// every state it is asked to place (the runner reuses the state's slices).
type queryRecorder struct {
	inner   machine.Policy
	queries []machine.QuantumState
}

func (r *queryRecorder) Name() string { return r.inner.Name() }

func (r *queryRecorder) Place(st *machine.QuantumState) machine.Placement {
	q := *st
	q.AppIDs = append([]int(nil), st.AppIDs...)
	q.Prev = append(machine.Placement(nil), st.Prev...)
	q.Samples = append([]pmu.Counters(nil), st.Samples...)
	q.Priorities = append([]int(nil), st.Priorities...)
	r.queries = append(r.queries, q)
	return r.inner.Place(st)
}

// recordQueries runs a machine-saturating open-system scenario under SYNPA
// and returns the model-driven placement queries it asked (states with
// PMU samples and at least two live apps). Three waves of the pool arrive
// at once on a four-core SMT2 machine, in a seed-shuffled order with
// seed-derived application streams, so the live sets churn for the whole
// run.
func recordQueries(model *core.Model, tc *workload.TargetCache, seed uint64) ([]machine.QuantumState, error) {
	mc := machineConfig(4, 2)
	rng := xrand.New(seed ^ 0x9E3779B97F4A7C15)
	tr := workload.Trace{Name: "serve-sat"}
	for wave := 0; wave < 3; wave++ {
		order := rng.Perm(len(appPool))
		for _, i := range order {
			tr.Entries = append(tr.Entries, workload.TraceEntry{App: appPool[i], Work: 1})
		}
	}
	work, _, err := tc.DynamicWork(tr)
	if err != nil {
		return nil, err
	}
	mach, err := machine.New(mc)
	if err != nil {
		return nil, err
	}
	rec := &queryRecorder{inner: core.MustPolicy(model, core.PolicyOptions{})}
	res, err := mach.RunDynamic(work, rec, machine.DynamicOptions{
		Seed:      seed,
		MaxCycles: maxQuanta * quantumCycles,
	})
	if err != nil {
		return nil, err
	}
	if !res.AllCompleted {
		return nil, fmt.Errorf("query recording run did not complete")
	}
	var live []machine.QuantumState
	for _, q := range rec.queries {
		if q.Samples != nil && q.NumApps >= 2 {
			live = append(live, q)
		}
	}
	if len(live) == 0 {
		return nil, fmt.Errorf("query recording run asked no model-driven queries")
	}
	return live, nil
}
