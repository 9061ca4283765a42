package main

import (
	"runtime"
	"runtime/metrics"
)

// notePeak collects garbage and folds the heap left live into the run's
// peak. Workloads call it at the end of every measured operation, while
// the operation's structures (results, caches, servers) are still
// referenced: the high-water mark of what a run retains, at points that
// are the same in every run, so the figure does not depend on where
// garbage collections happen to fall.
func (b *bench) notePeak() {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		b.peakHeap = max(b.peakHeap, s[0].Value.Uint64())
	}
}
