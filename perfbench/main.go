// Command perfbench is the repository benchmark. It builds one of four
// workloads from a seed, measures it for a fixed time and prints one JSON
// result line as the last line of its standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (tracing off); with
// -trace 1 a separate traced run reports the per-layer metrics, keeps its
// spans in memory and writes them as Chrome trace-event JSON at the end.
// README.md lists the workloads, the metrics and the predictions that tie
// the two together.
//
// Run it through run.py, which builds this package against the repository
// checkout it sits in:
//
//	python3 perfbench/run.py --workload closed-smt2 --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// workloads maps each workload name to its driver.
var workloads = map[string]func(*bench) error{
	"closed-smt2":  runClosed,
	"fleet-smt4":   runFleet,
	"serve-place":  runServe,
	"place-replay": runReplay,
}

// maxProcs caps GOMAXPROCS: the benchmark is sized for a 2-CPU host.
const maxProcs = 2

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Uint64("seed", 1, "workload seed: the same seed builds the same inputs")
		seconds = flag.Float64("seconds", 10, "measurement window in seconds")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: traced run reporting per-layer metrics")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memProf = flag.String("memprofile", "", "write a heap profile at the end of the run to this file")
		outDir  = flag.String("out", filepath.Join(".bench_build", "out"), "directory for the result record and the Chrome trace")
	)
	flag.Parse()
	drive, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: -trace must be 0 or 1 (got %d)\n", *traced)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: -seconds must be positive\n")
		return 2
	}
	runtime.GOMAXPROCS(min(maxProcs, runtime.NumCPU()))

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: starting CPU profile: %v\n", err)
			return 1
		}
	}

	b := newBench(*name, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1)
	err := drive(b)
	if *cpuProf != "" {
		pprof.StopCPUProfile()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if *memProf != "" {
		if err := writeHeapProfile(*memProf); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	if !b.traced {
		b.finish()
	}

	rec := b.record()
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	stem := fmt.Sprintf("%s-seed%d-trace%d", *name, *seed, *traced)
	if b.traced {
		path := filepath.Join(*outDir, "trace-"+stem+".json")
		if err := b.tr.writeChrome(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", err)
			return 1
		}
		rec.TraceFile = path
	}
	if err := writeJSONFile(filepath.Join(*outDir, "result-"+stem+".json"), rec); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	printRecord(os.Stdout, rec)
	line, err := json.Marshal(b.result())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // profile the live heap as of the end of the run
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("writing heap profile: %w", err)
	}
	return f.Close()
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
