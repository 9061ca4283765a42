package main

import (
	"syscall"
	"time"
	"unsafe"
)

// CPU clocks (Linux clock ids; the benchmark runs on Linux). This
// benchmark shares its host with other virtual machines,
// which can steal a third of its CPU time for minutes at a stretch; wall
// time then measures the neighbours as much as the program. The CPU-time
// clocks count only time this process's threads actually ran.
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// processCPU returns the CPU time all of the process's threads have used.
func processCPU() time.Duration { return cpuClock(clockProcessCPU) }

// threadCPU returns the CPU time the calling thread has used. Callers lock
// their goroutine to its thread (runtime.LockOSThread) so the thread's
// time is the goroutine's.
func threadCPU() time.Duration { return cpuClock(clockThreadCPU) }
