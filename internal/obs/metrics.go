package obs

// Lock-free metric values: counters, gauges, and fixed-bucket
// histograms. Counter and Gauge implement expvar.Var, so a service
// publishes them straight into an *expvar.Map.

import (
	"math"
	"sort"
	"strconv"
	"sync/atomic"
)

// DefBuckets is the default latency histogram layout, in seconds. The
// top bucket is well above rcserve's 2-minute request timeout; +Inf is
// implicit.
var DefBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 30, 120,
}

// ---------------------------------------------------------------- counter

// Counter is a monotonically increasing integer. The zero value is ready
// to use.
type Counter struct{ v atomic.Int64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// String renders the value, making Counter usable as an expvar.Var.
func (c *Counter) String() string { return strconv.FormatInt(c.v.Load(), 10) }

// ------------------------------------------------------------------ gauge

// Gauge is an instantaneous value. The zero value is ready to use.
type Gauge struct{ bits atomic.Uint64 }

// Add adjusts the gauge by delta (either sign).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// String renders the value the way expvar.Float does, making Gauge
// usable as an expvar.Var.
func (g *Gauge) String() string { return strconv.FormatFloat(g.Value(), 'g', -1, 64) }

// -------------------------------------------------------------- histogram

// Histogram counts observations into fixed buckets: counts[i] holds
// observations v <= bounds[i] that missed every lower bucket, and the
// final counts entry is the implicit +Inf bucket. Observe is lock-free.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last = +Inf
}

// NewHistogram returns a histogram with the given bucket upper bounds
// (nil = DefBuckets). The bounds must be strictly ascending and must not
// list +Inf, which is implicit.
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram buckets not strictly ascending")
		}
	}
	if len(bounds) > 0 && math.IsInf(bounds[len(bounds)-1], +1) {
		panic("obs: histogram must not list +Inf explicitly")
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v: the "le" bucket
	h.counts[i].Add(1)
}

// BucketCounts returns per-bucket (non-cumulative) counts; the final
// entry is the +Inf bucket.
func (h *Histogram) BucketCounts() []int64 {
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear
// interpolation inside the bucket holding the target rank. Returns 0
// with no observations; a target in the +Inf bucket returns the top
// finite bound (the histogram cannot see beyond it).
func (h *Histogram) Quantile(q float64) float64 {
	counts := h.BucketCounts()
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 || len(h.bounds) == 0 {
		return 0
	}
	q = min(max(q, 0), 1)
	rank := q * float64(total)
	var cum int64
	for i, c := range counts {
		cum += c
		if float64(cum) >= rank && c > 0 {
			if i == len(h.bounds) { // +Inf bucket: saturate at the top bound
				break
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			frac := max((rank-float64(cum-c))/float64(c), 0)
			return lo + (h.bounds[i]-lo)*frac
		}
	}
	return h.bounds[len(h.bounds)-1]
}
