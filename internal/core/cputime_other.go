//go:build !linux

package core

import "time"

// cpuTime runs f and returns its wall-clock duration: without a per-thread
// CPU clock, waits for a CPU are charged as compute.
func cpuTime(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}
