package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// namedMetric is one of the workload's own metrics, under the name the
// workload's description gives it, with the number of samples behind it
// (0 for a value that is not a sample statistic).
type namedMetric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// gateResult is one correctness check: how many operations it covered and
// how many failed.
type gateResult struct {
	Name      string `json:"name"`
	Attempted int64  `json:"attempted"`
	Failed    int64  `json:"failed"`
	Detail    string `json:"detail,omitempty"`
}

// bench is one benchmark run: its configuration, its tracer, the
// correctness gates and the metrics collected so far.
type bench struct {
	workload string
	seed     uint64
	window   time.Duration
	traced   bool
	tr       *tracer

	gates   []*gateResult
	metrics map[string]metric
	names   map[string]namedMetric
	config  map[string]any

	// peakHeap is the largest live heap notePeak has seen.
	peakHeap uint64
	// refs are the reference loop's times (calib.go).
	refMu sync.Mutex
	refs  []time.Duration
	// setupCPU is each set-up's process CPU time.
	setupCPU []float64

	// trainTimes and trainPairs describe the set-up's training runs.
	trainTimes []float64
	trainPairs int
}

func newBench(workload string, seed uint64, window time.Duration, traced bool) *bench {
	return &bench{
		workload: workload,
		seed:     seed,
		window:   window,
		traced:   traced,
		tr:       newTracer(traced),
		metrics:  map[string]metric{},
		names:    map[string]namedMetric{},
		config:   map[string]any{},
	}
}

// gate returns the named correctness gate, creating it on first use.
func (b *bench) gate(name string) *gateResult {
	for _, g := range b.gates {
		if g.Name == name {
			return g
		}
	}
	g := &gateResult{Name: name}
	b.gates = append(b.gates, g)
	return g
}

// check counts one checked operation against the named gate; a non-nil
// err marks it failed and keeps the first failure's message.
func (b *bench) check(name string, err error) {
	g := b.gate(name)
	g.Attempted++
	if err != nil {
		g.Failed++
		if g.Detail == "" {
			g.Detail = err.Error()
		}
	}
}

// e2e records an end-to-end metric (reported with -trace 0).
func (b *bench) e2e(name string, v float64, unit string) {
	if !b.traced {
		b.metrics[name] = metric{v, unit}
	}
}

// layer records a per-layer metric (reported with -trace 1).
func (b *bench) layer(name string, v float64, unit string) {
	if b.traced {
		b.metrics[name] = metric{v, unit}
	}
}

// named records one of the workload's own metrics for the record printed
// before the result line.
func (b *bench) named(name string, v float64, unit string, samples int) {
	b.names[name] = namedMetric{v, unit, samples}
}

// setupRuns is how many times each workload repeats its set-up; setup_s
// is the median.
const setupRuns = 3

// repeatSetup runs the workload's set-up setupRuns times, keeps each
// one's process CPU time for setup_s (the median, see finish), records the
// median wall time as setup_wall_s and returns the artefacts of the last
// repetition.
func repeatSetup[T any](b *bench, fn func() (T, error)) (T, error) {
	var (
		out   T
		walls []float64
	)
	for i := 0; i < setupRuns; i++ {
		b.calibrate()
		c0, t0 := processCPU(), time.Now()
		v, err := fn()
		if err != nil {
			return out, fmt.Errorf("setup: %w", err)
		}
		b.setupCPU = append(b.setupCPU, (processCPU() - c0).Seconds())
		walls = append(walls, time.Since(t0).Seconds())
		out = v
	}
	b.named("setup_wall_s", median(walls), "s", len(walls))
	return out, nil
}

// finish records the end-to-end metrics every workload shares, once the
// run's reference-loop times are all in: the normalised set-up CPU time
// and the peak live heap.
func (b *bench) finish() {
	s := median(b.setupCPU) * b.scale()
	b.e2e("setup_s", s, "s")
	b.named("setup_s", s, "cpu_s", len(b.setupCPU))
	mb := float64(b.peakHeap) / (1 << 20)
	b.e2e("peak_heap_mb", mb, "MB")
	b.named("peak_heap_mb", mb, "MB", 0)
	b.named("host_speed", 1/b.scale(), "x", len(b.refs))
}

// result is the contract's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (b *bench) result() result {
	r := result{Metrics: b.metrics}
	for _, g := range b.gates {
		r.Attempted += g.Attempted
		r.Failed += g.Failed
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
	return r
}

// runRecord is everything a run reports: the host fingerprint, the run
// configuration, every gate, the workload's own metrics and the contract
// metrics. It is written to the output directory and printed before the
// result line.
type runRecord struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Host      hostInfo               `json:"host"`
	Config    map[string]any         `json:"config"`
	Gates     []*gateResult          `json:"gates"`
	Named     map[string]namedMetric `json:"named_metrics"`
	Metrics   map[string]metric      `json:"metrics"`
	TraceFile string                 `json:"trace_file,omitempty"`
}

func (b *bench) record() *runRecord {
	return &runRecord{
		Workload: b.workload,
		Seed:     b.seed,
		Seconds:  b.window.Seconds(),
		Trace:    b.traced,
		Host:     fingerprint(),
		Config:   b.config,
		Gates:    b.gates,
		Named:    b.names,
		Metrics:  b.metrics,
	}
}

// printRecord writes a human-readable summary: fingerprint, gates and the
// workload's metrics, one per line, each with its unit.
func printRecord(w io.Writer, rec *runRecord) {
	host, _ := json.Marshal(rec.Host)
	cfg, _ := json.Marshal(rec.Config)
	fmt.Fprintf(w, "# perfbench %s seed=%d seconds=%g trace=%v\n", rec.Workload, rec.Seed, rec.Seconds, rec.Trace)
	fmt.Fprintf(w, "# host %s\n", host)
	fmt.Fprintf(w, "# config %s\n", cfg)
	for _, g := range rec.Gates {
		fmt.Fprintf(w, "# gate %-28s attempted=%d failed=%d %s\n", g.Name, g.Attempted, g.Failed, g.Detail)
	}
	for _, k := range sortedKeys(rec.Named) {
		m := rec.Named[k]
		fmt.Fprintf(w, "# %-28s %14.6g %-6s", k, m.Value, m.Unit)
		if m.Samples > 0 {
			fmt.Fprintf(w, " (n=%d)", m.Samples)
		}
		fmt.Fprintln(w)
	}
	if rec.TraceFile != "" {
		fmt.Fprintf(w, "# chrome trace %s\n", rec.TraceFile)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
