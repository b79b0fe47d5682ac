// Package metrics provides the measurement primitives used by the experiment
// harness: log-bucketed latency histograms with percentile queries, counters
// and gauges. No type is safe for concurrent use: each belongs to the
// goroutine that drives its node, client or run.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"time"
)

// Histogram records duration samples into logarithmic buckets spanning
// 1 microsecond to ~1 hour, with exact min/max/sum tracking. The zero value
// is ready to use.
type Histogram struct {
	buckets [bucketCount]uint64
	count   uint64
	sum     time.Duration
	min     time.Duration
	max     time.Duration
}

const (
	// 8 buckets per power of two between 1us and 2^32 us (~71 min).
	bucketsPerOctave = 8
	octaves          = 32
	bucketCount      = bucketsPerOctave * octaves
)

// bucketIndex returns the bucket of d: the largest index whose floor is at
// most d. It runs once per fresh entity on every replica, so it is integer
// work: the bit length of the whole microseconds names the octave, then at
// most eight compares against bucketFloor find the bucket in it. The scan
// ends where the table says, not where the octave does, so it stays right
// even if Log2's rounding had put an octave's first floor a nanosecond early.
func bucketIndex(d time.Duration) int {
	if d < time.Microsecond {
		return 0
	}
	i := min((bits.Len64(uint64(d/time.Microsecond))-1)*bucketsPerOctave, bucketCount-1)
	for i+1 < bucketCount && bucketFloor[i+1] <= d {
		i++
	}
	return i
}

// bucketFloor[i] is the smallest duration that bucketIndexLog2, the formula
// that defines the buckets, puts in bucket i or above: 256 binary searches
// at package init, 0.4 ms.
var bucketFloor = func() (floor [bucketCount]time.Duration) {
	for i := range floor {
		floor[i] = time.Duration(sort.Search(math.MaxInt64, func(d int) bool {
			return bucketIndexLog2(time.Duration(d)) >= i
		}))
	}
	return floor
}()

// bucketIndexLog2 is the definition bucketIndex is tabulated from (and checked
// against): eight buckets to each doubling of d in microseconds.
func bucketIndexLog2(d time.Duration) int {
	us := float64(d) / float64(time.Microsecond)
	if us < 1 {
		return 0
	}
	idx := int(math.Log2(us) * bucketsPerOctave)
	if idx >= bucketCount {
		idx = bucketCount - 1
	}
	return idx
}

func bucketLower(idx int) time.Duration {
	us := math.Exp2(float64(idx) / bucketsPerOctave)
	return time.Duration(us * float64(time.Microsecond))
}

// Observe records one sample.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.buckets[bucketIndex(d)]++
	h.count++
	h.sum += d
	if h.count == 1 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() time.Duration { return h.sum }

// Min returns the smallest observed sample, or 0 with no samples.
func (h *Histogram) Min() time.Duration { return h.min }

// Max returns the largest observed sample.
func (h *Histogram) Max() time.Duration { return h.max }

// Mean returns the arithmetic mean of samples, or 0 with no samples.
func (h *Histogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Quantile returns an estimate of the q-quantile (q in [0,1]) using the
// bucket lower bound, clamped to the exact observed min/max.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	target := uint64(q * float64(h.count))
	if target >= h.count {
		target = h.count - 1
	}
	var cum uint64
	for i, c := range h.buckets {
		cum += c
		if cum > target {
			est := bucketLower(i)
			if est < h.min {
				est = h.min
			}
			if est > h.max {
				est = h.max
			}
			return est
		}
	}
	return h.max
}

// P50, P95, P99 are convenience quantile accessors.
func (h *Histogram) P50() time.Duration { return h.Quantile(0.50) }

// P95 returns the 95th percentile estimate.
func (h *Histogram) P95() time.Duration { return h.Quantile(0.95) }

// P99 returns the 99th percentile estimate.
func (h *Histogram) P99() time.Duration { return h.Quantile(0.99) }

// Delta returns the distribution of samples observed since prev, where prev
// is an earlier copy of h (histograms are value types, so `w := *h` takes a
// cut point). Buckets and count/sum subtract exactly; min/max cannot be
// recovered per-window, so they are approximated from the occupied buckets
// (lower bound of the first and last non-empty bucket), clamped into the
// cumulative [min, max]. Quantiles of the result are therefore as accurate
// as the buckets — exactly what windowed before/after comparisons need.
func (h *Histogram) Delta(prev *Histogram) Histogram {
	var d Histogram
	lo, hi := -1, -1
	for i := range h.buckets {
		c := h.buckets[i] - prev.buckets[i]
		d.buckets[i] = c
		if c > 0 {
			if lo < 0 {
				lo = i
			}
			hi = i
		}
	}
	d.count = h.count - prev.count
	d.sum = h.sum - prev.sum
	if d.count == 0 {
		return Histogram{}
	}
	d.min, d.max = bucketLower(lo), bucketLower(hi)
	if d.min < h.min {
		d.min = h.min
	}
	if d.max > h.max {
		d.max = h.max
	}
	if d.min > d.max {
		d.min = d.max
	}
	return d
}

// Merge adds o's samples to h, as if h had observed them too: buckets,
// count and sum add up, and min and max are the pair's.
func (h *Histogram) Merge(o *Histogram) {
	if o.count == 0 {
		return
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	h.max = max(h.max, o.max)
	for i, c := range o.buckets {
		h.buckets[i] += c
	}
	h.count += o.count
	h.sum += o.sum
}

// String summarizes the distribution.
func (h *Histogram) String() string {
	if h.count == 0 {
		return "histogram{empty}"
	}
	return fmt.Sprintf("histogram{n=%d mean=%v p50=%v p95=%v p99=%v max=%v}",
		h.count, h.Mean().Round(time.Microsecond), h.P50().Round(time.Microsecond),
		h.P95().Round(time.Microsecond), h.P99().Round(time.Microsecond),
		h.max.Round(time.Microsecond))
}

// Counter is a monotonically increasing sum. The zero value is ready to use.
type Counter struct {
	n uint64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta uint64) { c.n += delta }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Gauge is a float value that can move up and down, with min/max tracking.
type Gauge struct {
	v        float64
	min, max float64
	set      bool
}

// Set assigns the gauge value.
func (g *Gauge) Set(v float64) {
	g.v = v
	if !g.set || v < g.min {
		g.min = v
	}
	if !g.set || v > g.max {
		g.max = v
	}
	g.set = true
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v }

// Min returns the smallest value ever set.
func (g *Gauge) Min() float64 { return g.min }

// Max returns the largest value ever set.
func (g *Gauge) Max() float64 { return g.max }

// Registry is a named collection of metrics, one per server/component.
type Registry struct {
	name  string
	hists map[string]*Histogram
	ctrs  map[string]*Counter
}

// NewRegistry creates a registry labeled name.
func NewRegistry(name string) *Registry {
	return &Registry{
		name:  name,
		hists: make(map[string]*Histogram),
		ctrs:  make(map[string]*Counter),
	}
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	c, ok := r.ctrs[name]
	if !ok {
		c = &Counter{}
		r.ctrs[name] = c
	}
	return c
}

// HistogramNames returns the sorted names of all histograms.
func (r *Registry) HistogramNames() []string {
	names := make([]string, 0, len(r.hists))
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// CounterNames returns the sorted names of all counters.
func (r *Registry) CounterNames() []string {
	names := make([]string, 0, len(r.ctrs))
	for n := range r.ctrs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// String renders all metrics, one per line, in sorted order.
func (r *Registry) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "registry %q:\n", r.name)
	for _, n := range r.CounterNames() {
		fmt.Fprintf(&b, "  counter %-30s %d\n", n, r.ctrs[n].Value())
	}
	for _, n := range r.HistogramNames() {
		fmt.Fprintf(&b, "  hist    %-30s %s\n", n, r.hists[n])
	}
	return b.String()
}

// FlatHeap is the soak gates' flatness rule over post-GC heap samples, one
// per epoch. Epoch 3 is the baseline: epochs 1–2 still carry warm-up (pools
// reaching their high-water mark, lazily allocated scratch). Every sample in
// the final quartile must stay within tol of it plus slack bytes, which
// absorbs allocator noise on small heaps. Fewer than 3 samples have no
// baseline and are not flat.
func FlatHeap(heaps []uint64, tol float64, slack uint64) (base uint64, flat bool) {
	if len(heaps) < 3 {
		return 0, false
	}
	base = heaps[2]
	lim := uint64(float64(base)*(1+tol)) + slack
	for _, h := range heaps[len(heaps)-max(1, len(heaps)/4):] {
		if h > lim {
			return base, false
		}
	}
	return base, true
}
