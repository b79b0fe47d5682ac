package main

import (
	"math"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name    string
		clients int
		rate    float64
		ok      bool
	}{
		{"defaults", 10, 20, true},
		{"one client, slow", 1, 0.5, true},
		{"fastest ticker", 1, 1e9, true},
		{"zero rate", 10, 0, false},
		{"negative rate", 10, -20, false},
		{"rate whose interval rounds to zero", 10, 2e9, false},
		{"NaN rate", 10, math.NaN(), false},
		{"infinite rate", 10, math.Inf(1), false},
		{"zero clients", 0, 20, false},
		{"negative clients", -3, 20, false},
	} {
		if err := checkFlags(tc.clients, tc.rate); (err == nil) != tc.ok {
			t.Errorf("%s: checkFlags(%d, %v) = %v, want ok=%v", tc.name, tc.clients, tc.rate, err, tc.ok)
		}
	}
}

func TestVerdict(t *testing.T) {
	for _, tc := range []struct {
		name                    string
		sessions, updates, errs uint64
		ok                      bool
	}{
		{"healthy run", 4, 900, 0, true},
		{"some sessions failed", 8, 900, 3, true},
		{"server unreachable", 2, 0, 2, false},
		{"every session failed after some updates", 2, 10, 2, false},
		{"server replicated nothing", 4, 0, 0, false},
		{"no session ran", 0, 0, 0, false},
	} {
		if err := verdict(tc.sessions, tc.updates, tc.errs); (err == nil) != tc.ok {
			t.Errorf("%s: verdict(%d, %d, %d) = %v, want ok=%v", tc.name, tc.sessions, tc.updates, tc.errs, err, tc.ok)
		}
	}
}
