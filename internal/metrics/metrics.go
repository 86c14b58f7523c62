// Package metrics provides the small measurement toolkit the experiment
// harness uses: latency histograms with percentile queries and windowed
// throughput meters.
package metrics

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Histogram records durations in logarithmic buckets (~7% relative error)
// and answers percentile queries. It is safe for concurrent use.
type Histogram struct {
	counts [bucketCount]atomic.Int64
	total  atomic.Int64
	sumNs  atomic.Int64
	maxNs  atomic.Int64
}

const (
	// Buckets span 100ns … ~100s with 16 buckets per octave.
	bucketCount      = 480
	bucketsPerOctave = 16
	minNs            = 100
)

// bucketFor maps a duration to a bucket index.
func bucketFor(d time.Duration) int {
	ns := float64(d.Nanoseconds())
	if ns < minNs {
		return 0
	}
	b := int(math.Log2(ns/minNs) * bucketsPerOctave)
	if b >= bucketCount {
		return bucketCount - 1
	}
	return b
}

// bucketValue returns a representative duration for bucket b.
func bucketValue(b int) time.Duration {
	ns := minNs * math.Pow(2, (float64(b)+0.5)/bucketsPerOctave)
	return time.Duration(ns)
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.counts[bucketFor(d)].Add(1)
	h.total.Add(1)
	h.sumNs.Add(d.Nanoseconds())
	for {
		cur := h.maxNs.Load()
		if d.Nanoseconds() <= cur || h.maxNs.CompareAndSwap(cur, d.Nanoseconds()) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.total.Load() }

// Mean returns the average observation.
func (h *Histogram) Mean() time.Duration {
	n := h.total.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sumNs.Load() / n)
}

// Max returns the largest observation.
func (h *Histogram) Max() time.Duration { return time.Duration(h.maxNs.Load()) }

// Quantile returns the duration at quantile q in [0,1].
func (h *Histogram) Quantile(q float64) time.Duration {
	n := h.total.Load()
	if n == 0 {
		return 0
	}
	target := int64(q * float64(n))
	if target >= n {
		target = n - 1
	}
	var seen int64
	for b := 0; b < bucketCount; b++ {
		seen += h.counts[b].Load()
		if seen > target {
			return bucketValue(b)
		}
	}
	return h.Max()
}

// String summarizes the distribution.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v max=%v",
		h.Count(), h.Mean().Round(time.Microsecond),
		h.Quantile(0.50).Round(time.Microsecond),
		h.Quantile(0.95).Round(time.Microsecond),
		h.Quantile(0.99).Round(time.Microsecond),
		h.Max().Round(time.Microsecond))
}

// Meter measures operation throughput: total rate and a recent-window rate.
type Meter struct {
	mu      sync.Mutex
	start   time.Time
	ops     int64
	winOps  int64
	winFrom time.Time
}

// NewMeter starts a meter now.
func NewMeter() *Meter {
	now := time.Now()
	return &Meter{start: now, winFrom: now}
}

// Add records n completed operations.
func (m *Meter) Add(n int64) {
	m.mu.Lock()
	m.ops += n
	m.winOps += n
	m.mu.Unlock()
}

// Rate returns overall operations per second since the meter started.
func (m *Meter) Rate() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	el := time.Since(m.start).Seconds()
	if el <= 0 {
		return 0
	}
	return float64(m.ops) / el
}

// Total returns the operation count.
func (m *Meter) Total() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ops
}

// WindowRate returns operations per second since the last WindowRate call
// and resets the window — the per-interval IOPS series of Figure 10/12.
func (m *Meter) WindowRate() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := time.Now()
	el := now.Sub(m.winFrom).Seconds()
	rate := 0.0
	if el > 0 {
		rate = float64(m.winOps) / el
	}
	m.winOps = 0
	m.winFrom = now
	return rate
}
