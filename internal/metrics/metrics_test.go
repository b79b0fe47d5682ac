package metrics

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.P99() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Error("empty histogram should report zeros")
	}
	if !strings.Contains(h.String(), "empty") {
		t.Errorf("String = %q", h.String())
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	for _, d := range []time.Duration{
		time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond,
	} {
		h.Observe(d)
	}
	if h.Count() != 3 {
		t.Errorf("Count = %d", h.Count())
	}
	if h.Min() != time.Millisecond {
		t.Errorf("Min = %v", h.Min())
	}
	if h.Max() != 3*time.Millisecond {
		t.Errorf("Max = %v", h.Max())
	}
	if h.Mean() != 2*time.Millisecond {
		t.Errorf("Mean = %v", h.Mean())
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Observe(-time.Second)
	if h.Min() != 0 || h.Max() != 0 {
		t.Error("negative sample should clamp to zero")
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	var h Histogram
	rng := rand.New(rand.NewSource(5))
	samples := make([]time.Duration, 0, 10000)
	for i := 0; i < 10000; i++ {
		d := time.Duration(rng.ExpFloat64() * float64(20*time.Millisecond))
		samples = append(samples, d)
		h.Observe(d)
	}
	// Bucketed quantiles must fall within one bucket (~9%) of the true value.
	for _, q := range []float64{0.5, 0.9, 0.99} {
		est := h.Quantile(q)
		exact := exactQuantile(samples, q)
		lo := time.Duration(float64(exact) * 0.85)
		hi := time.Duration(float64(exact) * 1.15)
		if est < lo || est > hi {
			t.Errorf("q=%v: est %v outside [%v, %v] (exact %v)", q, est, lo, hi, exact)
		}
	}
	if h.Quantile(0) != h.Min() {
		t.Error("Quantile(0) should be Min")
	}
	if h.Quantile(1) != h.Max() {
		t.Error("Quantile(1) should be Max")
	}
}

func exactQuantile(samples []time.Duration, q float64) time.Duration {
	s := make([]time.Duration, len(samples))
	copy(s, samples)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	idx := int(q * float64(len(s)-1))
	return s[idx]
}

// TestHistogramMerge: a histogram merged from two is the histogram that
// observed both sample sets — count, sum, min, max and every bucket, so every
// quantile — in either order, and merging an empty one changes nothing.
func TestHistogramMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var a, b, both Histogram
	for i := 0; i < 2000; i++ {
		d := time.Duration(rng.ExpFloat64() * float64(20*time.Millisecond))
		if i%3 == 0 {
			a.Observe(d)
		} else {
			d += 50 * time.Millisecond
			b.Observe(d)
		}
		both.Observe(d)
	}
	for _, order := range [][2]Histogram{{a, b}, {b, a}} {
		var m Histogram
		m.Merge(&order[0])
		m.Merge(&Histogram{})
		m.Merge(&order[1])
		if m != both {
			t.Errorf("merged %v, want %v", &m, &both)
		}
		for _, q := range []float64{0, 0.5, 0.9, 0.95, 0.99, 1} {
			if m.Quantile(q) != both.Quantile(q) {
				t.Errorf("q=%v: merged %v, want %v", q, m.Quantile(q), both.Quantile(q))
			}
		}
	}
}

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	var g Gauge
	g.Set(3)
	g.Set(-1)
	g.Set(2)
	if g.Value() != 2 || g.Min() != -1 || g.Max() != 3 {
		t.Errorf("gauge = %v min=%v max=%v", g.Value(), g.Min(), g.Max())
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry("edge-gz")
	r.Counter("msgs.sent").Add(10)
	r.Counter("msgs.recv").Add(7)
	r.Histogram("sync.latency").Observe(time.Millisecond)
	if r.Counter("msgs.sent").Value() != 10 {
		t.Error("counter not persistent across lookups")
	}
	names := r.CounterNames()
	if len(names) != 2 || names[0] != "msgs.recv" {
		t.Errorf("CounterNames = %v", names)
	}
	if len(r.HistogramNames()) != 1 {
		t.Errorf("HistogramNames = %v", r.HistogramNames())
	}
	out := r.String()
	for _, want := range []string{"edge-gz", "msgs.sent", "sync.latency"} {
		if !strings.Contains(out, want) {
			t.Errorf("String missing %q:\n%s", want, out)
		}
	}
}

// TestBucketIndexMatchesLog2: the integer bucketIndex is the Log2 formula's
// table, so the two agree wherever they are asked — every duration up to
// 2²² ns (twelve octaves, one nanosecond at a time), five million random ones
// across every octave an int64 has, and the three nanoseconds either side of
// every threshold, where a table built one off would show.
func TestBucketIndexMatchesLog2(t *testing.T) {
	check := func(d time.Duration) {
		if got, want := bucketIndex(d), bucketIndexLog2(d); got != want {
			t.Fatalf("bucketIndex(%d ns) = %d, the Log2 form says %d", d, got, want)
		}
	}
	for d := time.Duration(0); d <= 1<<22; d++ {
		check(d)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5_000_000; i++ {
		check(time.Duration(rng.Uint64() >> (1 + rng.Intn(63))))
	}
	for i, floor := range bucketFloor {
		if i > 0 && floor <= bucketFloor[i-1] {
			t.Fatalf("bucketFloor[%d] = %d is not above bucketFloor[%d] = %d", i, floor, i-1, bucketFloor[i-1])
		}
		for d := max(floor-3, 0); d <= floor+3; d++ {
			check(d)
		}
	}
	check(math.MaxInt64)
}

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i%1000) * time.Microsecond)
	}
}

func TestFlatHeap(t *testing.T) {
	for _, tc := range []struct {
		name  string
		heaps []uint64
		base  uint64
		flat  bool
	}{
		{"no baseline", []uint64{1, 2}, 0, false},
		{"epochs 1-2 are warm-up", []uint64{900, 900, 100, 100}, 100, true},
		{"at the limit", []uint64{0, 0, 100, 0, 0, 0, 0, 110 + 5}, 100, true},
		{"over the limit", []uint64{0, 0, 100, 0, 0, 0, 0, 110 + 6}, 100, false},
		{"only the final quartile counts", []uint64{0, 0, 100, 999, 0, 0, 0, 0}, 100, true},
	} {
		if base, flat := FlatHeap(tc.heaps, 0.10, 5); base != tc.base || flat != tc.flat {
			t.Errorf("%s: FlatHeap = %d, %v; want %d, %v", tc.name, base, flat, tc.base, tc.flat)
		}
	}
}
