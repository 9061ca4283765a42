package main

import "time"

// simExec is what one execution of a simulation operation measured.
type simExec struct {
	wall   time.Duration
	cpu    time.Duration   // process CPU time
	cycles int64           // simulated core-cycles, from the engines' counters
	lat    []time.Duration // CPU time of each SYNPA decision
}

// simTally collects the executions of a simulation workload's operations.
// An operation's cost is the median over its executions, so a burst of
// host noise during one execution moves the result little.
type simTally struct {
	cpu, wall [][]float64
	cycles    []int64
	// lat holds, per op, each decision's smallest CPU time over the op's
	// executions, in µs. The runs are deterministic, so decision j of an
	// op is the same computation in every execution, and its fastest
	// execution is the one least disturbed by garbage collection and
	// interrupts.
	lat   [][]float64
	execs int
}

func newSimTally(ops int) *simTally {
	return &simTally{
		cpu:    make([][]float64, ops),
		wall:   make([][]float64, ops),
		cycles: make([]int64, ops),
		lat:    make([][]float64, ops),
	}
}

func (t *simTally) add(op int, e simExec) {
	t.cpu[op] = append(t.cpu[op], e.cpu.Seconds())
	t.wall[op] = append(t.wall[op], e.wall.Seconds())
	t.cycles[op] = e.cycles
	us := micros(e.lat)
	if t.lat[op] == nil {
		t.lat[op] = us
	} else {
		for j := range min(len(us), len(t.lat[op])) {
			t.lat[op][j] = min(t.lat[op][j], us[j])
		}
	}
	t.execs++
}

// reportSim records the simulation workload's end-to-end metrics:
// simulated core-cycles per normalised CPU second and the normalised CPU
// time of one run (each run's cost is the median of its executions). For
// the record it adds the rate per raw CPU second and per wall second, and
// the SYNPA decisions' normalised CPU time. The decision times are not
// bounded: they shift by a tenth or more from one process to the next with
// identical work, for reasons outside the program.
func (b *bench) reportSim(t *simTally) {
	var cycles, cpu, wall float64
	var runs, lat []float64
	k := b.scale()
	for op := range t.cpu {
		if len(t.cpu[op]) > 0 {
			cycles += float64(t.cycles[op])
			cpu += median(t.cpu[op])
			wall += median(t.wall[op])
			runs = append(runs, median(t.cpu[op])*1e6*k)
			lat = append(lat, t.lat[op]...)
		}
	}
	norm := cpu * k
	b.e2e("throughput_per_cpu_s", ratio(cycles, norm), "1/cpu_s")
	b.e2e("op_cpu_us_p50", quantile(runs, 0.50), "cpu_us")
	b.e2e("op_cpu_us_p99", quantile(runs, 0.99), "cpu_us")
	b.named("sim_mcycles_per_cpu_s", ratio(cycles, norm)/1e6, "Mcycles/cpu_s", t.execs)
	b.named("sim_mcycles_per_raw_cpu_s", ratio(cycles, cpu)/1e6, "Mcycles/cpu_s", t.execs)
	b.named("sim_mcycles_per_s", ratio(cycles, wall)/1e6, "Mcycles/s", t.execs)
	b.named("run_cpu_us_p50", quantile(runs, 0.50), "cpu_us", len(runs))
	b.named("run_cpu_us_p99", quantile(runs, 0.99), "cpu_us", len(runs))
	b.named("place_cpu_us_p50", quantile(lat, 0.50)*k, "cpu_us", len(lat))
	b.named("place_cpu_us_p99", quantile(lat, 0.99)*k, "cpu_us", len(lat))
}
