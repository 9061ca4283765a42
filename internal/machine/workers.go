// Intra-run parallel quantum execution: within one scheduling quantum the
// cores are fully independent — each core's step touches only its own
// thread contexts, its bound applications' private RNG streams and their
// PMU banks — so the per-core stepping can be sharded across a pool of
// worker goroutines without any synchronisation beyond the quantum barrier.
//
// Determinism: core i is always stepped by shard i mod width, each core's
// execution is a pure function of its own pre-quantum state, and the runner
// reads results (PMU banks, retired counts) only after the barrier, in app
// order on the calling goroutine. The merge order is therefore fixed
// regardless of worker scheduling, and a run with Workers=N is bit-identical
// to Workers=1 (differential-tested in workers_test.go and synpa's
// parallel_test.go).
//
// The barrier pool itself lives in internal/pool (ShardPool) so the fleet
// layer can apply the same invariant one level up — machines sharded within
// a cluster instead of cores within a machine. The pool is run-scoped:
// Run/RunDynamic start it, every quantum dispatches one shard per worker
// plus the shard the calling goroutine executes itself, and the pool shuts
// down when the run returns — no goroutines outlive a run.
package machine

import (
	"os"
	"runtime"
	"strconv"

	"synpa/internal/pool"
)

// WorkersEnv is the environment variable that overrides Config.Workers:
// SYNPA_WORKERS=1 disables intra-run parallelism, higher values cap the
// worker count.
const WorkersEnv = "SYNPA_WORKERS"

// WorkersFromEnv resolves a configured worker count against the
// SYNPA_WORKERS override and a GOMAXPROCS default: the environment wins
// when set, a non-positive configured count falls back to GOMAXPROCS when
// parallel (1 otherwise), and the result is clamped to [1, tasks].
func WorkersFromEnv(configured, tasks int, parallel bool) int {
	w := configured
	// The worker count chooses how cores are sharded across goroutines,
	// never what any core computes: the quantum barrier makes every width
	// bit-identical (the parallel-merge invariant in smtcore/DESIGN.md),
	// so reading the host here cannot reach an observable bit.
	//synpa:lint-allow nondet worker width is output-neutral under the parallel-merge invariant
	if s := os.Getenv(WorkersEnv); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v >= 1 {
			w = v
		}
	}
	if w <= 0 {
		if !parallel {
			return 1
		}
		//synpa:lint-allow nondet GOMAXPROCS only sizes the shard pool; results are bit-identical at any width
		w = runtime.GOMAXPROCS(0)
	}
	if w > tasks {
		w = tasks
	}
	if w < 1 {
		w = 1
	}
	return w
}

// EffectiveWorkers resolves the worker count a machine built from this
// configuration will step cores with: the SYNPA_WORKERS environment
// variable when set, else Config.Workers, else GOMAXPROCS — all capped at
// the core count, and forced to 1 when Parallel is false (the knob callers
// already use to serialise runs they fan out themselves).
func (c Config) EffectiveWorkers() int {
	return WorkersFromEnv(c.Workers, c.Cores, c.Parallel)
}

// startPool launches the run-scoped worker pool and returns its stop
// function (always non-nil; a no-op for serial machines). The calling
// goroutine acts as shard 0, so width-1 workers are spawned.
func (m *Machine) startPool() func() {
	if m.workers <= 1 {
		return func() {}
	}
	p := pool.NewShardPool(m.workers)
	m.pool = p
	return func() {
		p.Close()
		m.pool = nil
	}
}

// stepCores executes one quantum slice on the cores marked in busy, sharded
// across the run's worker pool (inline on the calling goroutine when the
// pool is off).
func (m *Machine) stepCores(cycles uint64, busy []bool) {
	m.pool.Run(len(m.cores), func(i int) {
		if busy[i] {
			m.cores[i].Run(cycles)
		}
	})
}
