package main

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The host's speed drifts: other virtual machines on the same physical
// cores slow this one's threads by a third for minutes at a time, and CPU
// time stretches with them. So the benchmark runs a fixed reference loop
// before every measured operation and reports CPU times in units of the
// loop's median time over the run: the host's speed cancels out, while a
// change to the program does not touch the loop.

// refNanos is the reference loop's CPU time on a quiet host, which scales
// normalised times back to familiar magnitudes; any fixed value would do.
const refNanos = 2_000_000

// refIters is the reference loop's length.
const refIters = 200_000

// refTableLen is the reference loop's working set in words: 512 KiB, more
// than the L2 cache holds, so cache pressure from neighbours slows the
// loop as it slows the simulator.
const refTableLen = 1 << 16

// refTables recycles the loop's tables between calibrations; concurrent
// calibrations each take their own.
var refTables = sync.Pool{New: func() any { return new([refTableLen]uint64) }}

// refSink keeps the loop's result observable so it is not optimised away.
var refSink atomic.Uint64

// refLoop runs the reference work: integer hashing, a data-dependent
// branch and scattered reads and writes over the table.
func refLoop(table *[refTableLen]uint64) uint64 {
	x := uint64(88172645463325252)
	var acc uint64
	for i := 0; i < refIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v := table[x&(refTableLen-1)]
		if v&1 == 0 {
			acc += v>>3 + x
		} else {
			acc ^= v
		}
		table[(x>>20)&(refTableLen-1)] = acc
	}
	return acc
}

// calibrate times one reference loop on the calling thread and keeps the
// time for scale. The table is reset first, so every loop does the same
// work.
func (b *bench) calibrate() {
	table := refTables.Get().(*[refTableLen]uint64)
	for i := range table {
		table[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	runtime.LockOSThread()
	c0 := threadCPU()
	refSink.Store(refLoop(table))
	d := threadCPU() - c0
	runtime.UnlockOSThread()
	refTables.Put(table)
	b.refMu.Lock()
	b.refs = append(b.refs, d)
	b.refMu.Unlock()
}

// scale is the factor that converts this run's CPU times into
// reference-host CPU times: refNanos over the reference loop's median
// time in the run.
func (b *bench) scale() float64 {
	b.refMu.Lock()
	defer b.refMu.Unlock()
	if len(b.refs) == 0 {
		return 1
	}
	s := append([]time.Duration(nil), b.refs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return refNanos / float64(s[len(s)/2].Nanoseconds())
}
