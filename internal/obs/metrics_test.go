package obs

import (
	"expvar"
	"math"
	"sync"
	"testing"
)

// Counter and Gauge are published straight into expvar maps.
var (
	_ expvar.Var = (*Counter)(nil)
	_ expvar.Var = (*Gauge)(nil)
)

func TestCounter(t *testing.T) {
	var c Counter
	for i := 0; i < 5; i++ {
		c.Inc()
	}
	if c.Value() != 5 {
		t.Fatalf("Value = %d, want 5", c.Value())
	}
	if c.String() != "5" {
		t.Fatalf("String = %q", c.String())
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Add(2.5)
	if g.Value() != 2.5 {
		t.Fatalf("Value = %v", g.Value())
	}
	g.Add(-1)
	if g.Value() != 1.5 {
		t.Fatalf("after Add: %v", g.Value())
	}
	g.Add(1.5)
	if g.String() != "3" {
		t.Fatalf("String = %q, want %q (integral values render as JSON integers)", g.String(), "3")
	}
}

// TestHistogramBucketBoundaries pins the le semantics: an observation
// equal to a bound lands in that bound's bucket, just above it in the
// next.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 5})
	for _, v := range []float64{0.5, 1.0, 1.0001, 2.0, 4.99, 5.0, 5.0001, 100} {
		h.Observe(v)
	}
	want := []int64{
		2, // le=1: 0.5, 1.0
		2, // le=2: 1.0001, 2.0
		2, // le=5: 4.99, 5.0
		2, // +Inf: 5.0001, 100
	}
	got := h.BucketCounts()
	if len(got) != len(want) {
		t.Fatalf("bucket count = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{10, 20, 40})
	// 10 observations in (0,10], 10 in (10,20].
	for i := 0; i < 10; i++ {
		h.Observe(5)
		h.Observe(15)
	}
	if q := h.Quantile(0.5); q != 10 {
		t.Fatalf("p50 = %v, want 10 (upper edge of first bucket)", q)
	}
	if q := h.Quantile(0.25); q != 5 {
		t.Fatalf("p25 = %v, want 5 (midpoint of first bucket)", q)
	}
	if q := h.Quantile(1); q != 20 {
		t.Fatalf("p100 = %v, want 20", q)
	}
	if q := h.Quantile(0); q != 0 {
		t.Fatalf("p0 = %v, want 0", q)
	}
	// Everything in +Inf saturates at the top finite bound.
	h2 := NewHistogram([]float64{1, 2})
	h2.Observe(99)
	if q := h2.Quantile(0.5); q != 2 {
		t.Fatalf("+Inf quantile = %v, want 2", q)
	}
	// Empty histogram.
	h3 := NewHistogram(nil)
	if q := h3.Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %v, want 0", q)
	}
}

func TestNonAscendingBucketsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-ascending buckets did not panic")
		}
	}()
	NewHistogram([]float64{1, 1})
}

func TestExplicitInfBucketPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("+Inf bucket did not panic")
		}
	}()
	NewHistogram([]float64{1, math.Inf(1)})
}

func TestConcurrentObserves(t *testing.T) {
	h := NewHistogram([]float64{0.5})
	var c Counter
	var g Gauge
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			v := []float64{0.25, 0.75}[w%2]
			for i := 0; i < 1000; i++ {
				h.Observe(v)
				c.Inc()
				g.Add(1)
				g.Add(-1)
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := g.Value(); got != 0 {
		t.Fatalf("gauge = %v after balanced adds, want 0", got)
	}
	if got := h.BucketCounts(); got[0] != 4000 || got[1] != 4000 {
		t.Fatalf("bucket counts = %v, want [4000 4000]", got)
	}
}
