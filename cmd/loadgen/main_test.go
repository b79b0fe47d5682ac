package main

import (
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"metaclass/internal/protocol"
	"metaclass/internal/transport"
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
		if err := checkFlags(tc.clients, tc.rate, 30*time.Second, 0, 0, false); (err == nil) != tc.ok {
			t.Errorf("%s: checkFlags(%d, %v) = %v, want ok=%v", tc.name, tc.clients, tc.rate, err, tc.ok)
		}
	}
	// The mode flags, at the default -clients and -rate: -duration bounds a
	// run only, and -churn and -soak take no negative value in any mode.
	for _, tc := range []struct {
		name            string
		duration, churn time.Duration
		soak            int
		geo             bool
		ok              bool
	}{
		{"run with churn", 3 * time.Second, time.Second, 0, false, true},
		{"zero duration", 0, 0, 0, false, false},
		{"negative duration", -time.Second, 0, 0, false, false},
		{"soak ignores duration", 0, 200 * time.Millisecond, 10, false, true},
		{"geo ignores duration", 0, 0, 0, true, true},
		{"negative churn", 3 * time.Second, -5 * time.Second, 0, false, false},
		{"negative churn in a soak", 0, -time.Second, 10, false, false},
		{"negative soak", 3 * time.Second, 0, -1, false, false},
	} {
		if err := checkFlags(10, 20, tc.duration, tc.churn, tc.soak, tc.geo); (err == nil) != tc.ok {
			t.Errorf("%s: checkFlags(10, 20, %v, %v, %d, %v) = %v, want ok=%v",
				tc.name, tc.duration, tc.churn, tc.soak, tc.geo, err, tc.ok)
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

// TestSessionEndsWhenServerCloses: a server that reads the Hello and hangs up
// ends the session at once, counted as an error, instead of leaving the
// publisher writing into the dead socket until the deadline.
func TestSessionEndsWhenServerCloses(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		conn := transport.NewConn(c)
		if f, err := conn.ReadFrame(); err == nil {
			f.Release()
		}
		_ = conn.Close()
	}()

	var tl tally
	start := time.Now()
	err = tl.session(ln.Addr().String(), 1, 20, start, start.Add(10*time.Second))
	if took := time.Since(start); took > 3*time.Second {
		t.Fatalf("session returned after %v, want well before its 10 s deadline", took)
	}
	if err == nil || tl.errs != 1 {
		t.Fatalf("session = %v with errs = %d, want an error and errs = 1", err, tl.errs)
	}
}

// TestSessionsReplicateFromServedCloud: three concurrent sessions against
// the served cloud server each join without error, onboard once, and observe
// each other's avatars.
func TestSessionsReplicateFromServedCloud(t *testing.T) {
	addr, err := serveCloud()
	if err != nil {
		t.Fatal(err)
	}
	var (
		tl tally
		wg sync.WaitGroup
	)
	start := time.Now()
	for id := protocol.ParticipantID(1); id <= 3; id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = tl.session(addr, id, 20, start, start.Add(1500*time.Millisecond))
		}()
	}
	wg.Wait()
	if tl.sessions != 3 || tl.errs != 0 || tl.onboard.Count() != 3 || tl.age.Count() == 0 {
		t.Fatalf("sessions=%d errs=%d onboarding samples=%d age samples=%d, want 3, 0, 3 and some",
			tl.sessions, tl.errs, tl.onboard.Count(), tl.age.Count())
	}
}
