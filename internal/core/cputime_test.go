package core

import (
	"runtime"
	"testing"
	"time"
)

// spin burns CPU for about d of wall time.
func spin(d time.Duration) {
	x := 0
	for start := time.Now(); time.Since(start) < d; x++ {
	}
	_ = x
}

// TestComputeTimeSkipsSleep: a compute step is charged the CPU time its
// thread spent, so a step that only waits is charged almost nothing. Off
// Linux the step is timed in wall time and this does not hold.
func TestComputeTimeSkipsSleep(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("thread CPU time is read on Linux only; elsewhere steps are timed in wall time")
	}
	e := &engine{}
	var dil dilation
	const nap = 20 * time.Millisecond
	e.computeTime(&dil, S4Sort, func() { time.Sleep(nap) })
	if got := e.clock.snapshot().Get(S4Sort); got > nap/10 {
		t.Errorf("a step sleeping %v was charged %v, want < %v", nap, got, nap/10)
	}
}

// TestComputeTimeDilation: with CPUDilation D a step is charged D× its
// undilated time, and the (D−1)× extra is queued as the worker's sleep.
func TestComputeTimeDilation(t *testing.T) {
	const d = 4
	e := &engine{cfg: Config{CPUDilation: d}}
	var dil dilation
	e.computeTime(&dil, S5Compress, func() { spin(5 * time.Millisecond) })
	charged := e.clock.snapshot().Get(S5Compress)
	base := charged - dil.pending
	if base <= 0 {
		t.Fatalf("a spinning step was charged %v with %v pending: no undilated time", charged, dil.pending)
	}
	if charged != d*base {
		t.Errorf("charged %v, want %d× the undilated %v", charged, d, base)
	}
	if dil.pending != (d-1)*base {
		t.Errorf("pending sleep %v, want %d× the undilated %v", dil.pending, d-1, base)
	}

	// Without dilation the step is charged as measured and nothing is owed.
	e = &engine{}
	dil = dilation{}
	e.computeTime(&dil, S5Compress, func() { spin(time.Millisecond) })
	if got := e.clock.snapshot().Get(S5Compress); got <= 0 || dil.pending != 0 {
		t.Errorf("undilated step charged %v with %v pending, want > 0 and 0", got, dil.pending)
	}
}
