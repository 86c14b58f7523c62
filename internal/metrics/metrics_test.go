package metrics

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("Count = %d", h.Count())
	}
	mean := h.Mean()
	if mean < 400*time.Microsecond || mean > 600*time.Microsecond {
		t.Fatalf("Mean = %v, want ~500µs", mean)
	}
	if h.Max() != time.Millisecond {
		t.Fatalf("Max = %v", h.Max())
	}
	p50 := h.Quantile(0.5)
	if p50 < 400*time.Microsecond || p50 > 620*time.Microsecond {
		t.Fatalf("P50 = %v, want ~500µs", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 900*time.Microsecond || p99 > 1200*time.Microsecond {
		t.Fatalf("P99 = %v, want ~990µs", p99)
	}
	if h.Quantile(0.5) > h.Quantile(0.95) || h.Quantile(0.95) > h.Quantile(0.99) {
		t.Fatal("quantiles not monotone")
	}
	if h.String() == "" {
		t.Fatal("empty String")
	}
}

func TestHistogramRelativeError(t *testing.T) {
	var h Histogram
	val := 3 * time.Millisecond
	for i := 0; i < 100; i++ {
		h.Observe(val)
	}
	got := h.Quantile(0.5)
	err := float64(got-val) / float64(val)
	if err < -0.08 || err > 0.08 {
		t.Fatalf("relative error %.3f exceeds bucket resolution", err)
	}
}

func TestHistogramExtremes(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(time.Nanosecond)
	h.Observe(10 * time.Minute) // beyond the last bucket
	if h.Count() != 3 {
		t.Fatal("count")
	}
	if h.Quantile(1.0) < h.Quantile(0.0) {
		t.Fatal("extreme quantiles inverted")
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 10000; i++ {
				h.Observe(time.Duration(rng.Intn(1000000)))
			}
		}(int64(w))
	}
	wg.Wait()
	if h.Count() != 80000 {
		t.Fatalf("Count = %d, want 80000", h.Count())
	}
}

func TestMeter(t *testing.T) {
	m := NewMeter()
	m.Add(100)
	m.Add(50)
	if m.Total() != 150 {
		t.Fatalf("Total = %d", m.Total())
	}
	time.Sleep(10 * time.Millisecond)
	if r := m.Rate(); r <= 0 || r > 150/0.009 {
		t.Fatalf("Rate = %f", r)
	}
	// Window resets.
	if r := m.WindowRate(); r <= 0 {
		t.Fatalf("WindowRate = %f", r)
	}
	time.Sleep(5 * time.Millisecond)
	if r := m.WindowRate(); r != 0 {
		t.Fatalf("empty window rate = %f, want 0", r)
	}
}

func TestMeterConcurrent(t *testing.T) {
	m := NewMeter()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m.Add(1)
			}
		}()
	}
	wg.Wait()
	if m.Total() != 8000 {
		t.Fatalf("Total = %d", m.Total())
	}
}
