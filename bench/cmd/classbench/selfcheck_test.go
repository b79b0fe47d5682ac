package main

import "testing"

// TestQuartiles pins quartiles to Python's statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 2, 38, 23, 38, 23, 21}, [3]float64{10, 23, 38}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
	} {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
