//go:build linux

package core

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// clockThreadCPUTimeID is Linux's CLOCK_THREAD_CPUTIME_ID: the CPU time
// consumed by the calling thread, at nanosecond resolution.
const clockThreadCPUTimeID = 3

// threadCPU reads the calling OS thread's CPU time; ok is false if the
// clock cannot be read (a seccomp filter may refuse the call).
func threadCPU() (t time.Duration, ok bool) {
	var ts syscall.Timespec
	_, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID,
		uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano()), errno == 0
}

// cpuTime runs f and returns the CPU time its thread spent in it. The
// goroutine stays on one OS thread for the call, so time spent waiting for
// a CPU, sleeping or blocked is not counted. If the thread's clock cannot
// be read, f is timed in wall time, as off Linux.
func cpuTime(f func()) time.Duration {
	runtime.LockOSThread()
	wall := time.Now()
	start, ok1 := threadCPU()
	f()
	end, ok2 := threadCPU()
	runtime.UnlockOSThread()
	if !ok1 || !ok2 {
		return time.Since(wall)
	}
	return end - start
}
