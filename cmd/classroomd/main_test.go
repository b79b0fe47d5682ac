package main

import (
	"math"
	"testing"
	"time"
)

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		tick  float64
		stats time.Duration
		ok    bool
	}{
		{30, 5 * time.Second, true},
		{30, time.Nanosecond, true},
		{30, 0, false},
		{30, -time.Second, false},
		{1, time.Second, true},
		{65535, time.Second, true},
		{math.NaN(), time.Second, false},
		{0, time.Second, false},
		{-5, time.Second, false},
		{0.5, time.Second, false},
		{65536, time.Second, false},
		{70000, time.Second, false},
		{math.Inf(1), time.Second, false},
	} {
		if err := checkFlags(tc.tick, tc.stats); (err == nil) != tc.ok {
			t.Errorf("checkFlags(%v, %v) = %v, want ok=%v", tc.tick, tc.stats, err, tc.ok)
		}
	}
}
