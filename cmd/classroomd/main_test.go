package main

import (
	"testing"
	"time"
)

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		stats time.Duration
		ok    bool
	}{
		{5 * time.Second, true},
		{time.Nanosecond, true},
		{0, false},
		{-time.Second, false},
	} {
		if err := checkFlags(tc.stats); (err == nil) != tc.ok {
			t.Errorf("checkFlags(%v) = %v, want ok=%v", tc.stats, err, tc.ok)
		}
	}
}
