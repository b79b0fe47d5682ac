package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"metaclass/internal/mathx"
	"metaclass/internal/pose"
	"metaclass/internal/protocol"
)

// reachPose is the sample an upstream shows at stamp; nonce tells a
// redelivery of the stamp from the original.
func reachPose(stamp time.Duration, nonce float64) pose.Pose {
	s := stamp.Seconds()
	return pose.Pose{
		Time:     stamp,
		Position: mathx.V3(s, math.Sin(s), nonce),
		Rotation: mathx.QuatAxisAngle(mathx.V3(0, 1, 0), 0.3*s),
		Velocity: mathx.V3(1, math.Cos(s), 0),
	}
}

// reachStream is n deliveries of an upstream ticking at hz: capture stamps a
// fifth of a period either side of the tick grid, one delivery in twelve
// swapped behind its successor (a late arrival), one in twelve followed by a
// second delivery of a stamp up to three back with a different pose.
func reachStream(rng *rand.Rand, hz float64, n int) []pose.Pose {
	period := time.Duration(float64(time.Second) / hz)
	stamps := make([]time.Duration, n)
	for k := range stamps {
		stamps[k] = time.Second + time.Duration(k)*period + time.Duration((rng.Float64()-0.5)*0.4*float64(period))
	}
	out := make([]pose.Pose, 0, n+n/8)
	for k, stamp := range stamps {
		out = append(out, reachPose(stamp, 0))
		if last := len(out) - 1; k > 0 && rng.Intn(12) == 0 {
			out[last], out[last-1] = out[last-1], out[last]
		}
		if rng.Intn(12) == 0 {
			out = append(out, reachPose(stamps[max(k-rng.Intn(4), 0)], 1+rng.Float64()))
		}
	}
	return out
}

// reachRun feeds stream to a ring of depth samples and to a 64-deep one (the
// depth's ceiling), and after each delivery reads both the way a display
// does — at the newest stamp held, up to two periods past it, and up to the
// delay and three periods past it. It returns the first disagreement ("" when
// there is none) and how many reads the shallow ring clamped (a ring counts
// those only once it is full).
func reachRun(delay time.Duration, depth int, hz float64, stream []pose.Pose, rng *rand.Rand) (diff string, clamped uint64) {
	shallow, deep := pose.NewInterpBuffer(delay, depth, nil), pose.NewInterpBuffer(delay, 64, nil)
	period := time.Duration(float64(time.Second) / hz)
	var newest time.Duration
	for k, p := range stream {
		if got, want := shallow.Push(p), deep.Push(p); got != want {
			return fmt.Sprintf("delivery %d: Push(%v) fresh = %v, 64-deep %v", k, p.Time, got, want), 0
		}
		newest = max(newest, p.Time)
		for _, now := range []time.Duration{
			newest,
			newest + time.Duration(rng.Int63n(int64(2*period))),
			newest + time.Duration(rng.Int63n(int64(delay+3*period))),
		} {
			got, gotOK := shallow.Sample(now)
			want, wantOK := deep.Sample(now)
			if got != want || gotOK != wantOK {
				return fmt.Sprintf("delivery %d: Sample(newest+%v) = %v,%v, 64-deep %v,%v", k, now-newest, got, gotOK, want, wantOK), 0
			}
			gi, ge := shallow.Stats()
			wi, we := deep.Stats()
			if gi != wi || ge != we || shallow.Clamped() != deep.Clamped() {
				return fmt.Sprintf("delivery %d: Sample(newest+%v) counted %d/%d/%d, 64-deep %d/%d/%d",
					k, now-newest, gi, ge, shallow.Clamped(), wi, we, deep.Clamped()), 0
			}
		}
	}
	if shallow.Len() != depth {
		return fmt.Sprintf("ring of %d never filled in %d deliveries", depth, len(stream)), 0
	}
	return "", shallow.Clamped()
}

// TestPlayoutDepthCoversReach pins the rule playoutDepth states: a ring that
// deep answers every causal read (now >= the newest stamp held) exactly as
// the 64-deep ring does — same pose, same counters — whatever the delay, at
// every upstream rate up to 60 Hz, through jitter, late arrivals and
// redeliveries; and it never counts a clamped read (a ring starts counting
// when it fills). The oracle is the deep ring itself, which
// TestInterpBufferMatchesSliceModel checks.
//
// The mutation is seeded in the test: one sample shallower than the rule, at
// 60 Hz, must be caught for every delay the rule is not floored at.
func TestPlayoutDepthCoversReach(t *testing.T) {
	if got := playoutDepth(100 * time.Millisecond); got != 8 {
		t.Fatalf("playoutDepth(100ms) = %d, want 8", got)
	}
	for _, d := range []time.Duration{math.MinInt64, -time.Second, 0, time.Nanosecond, time.Hour, math.MaxInt64} {
		if got := playoutDepth(d); got < 8 || got > 64 {
			t.Fatalf("playoutDepth(%v) = %d, outside [8, 64]", d, got)
		}
	}
	delays := []time.Duration{0, 20 * time.Millisecond, 100 * time.Millisecond, 250 * time.Millisecond, time.Second, time.Hour}
	for _, delay := range delays {
		depth := playoutDepth(delay)
		for _, hz := range []float64{3.75, 20, 30, 60} {
			t.Run(fmt.Sprintf("delay=%v/hz=%v", delay, hz), func(t *testing.T) {
				for seed := int64(1); seed <= 3; seed++ {
					rng := rand.New(rand.NewSource(seed))
					diff, clamped := reachRun(delay, depth, hz, reachStream(rng, hz, 600), rng)
					if diff != "" {
						t.Fatalf("seed %d, depth %d: %s", seed, depth, diff)
					}
					// Past 64 samples' worth of delay the ceiling, not the
					// rule, sets the depth, and both rings clamp alike.
					if clamped != 0 && delay <= time.Second {
						t.Fatalf("seed %d, depth %d: %d reads clamped by a full ring", seed, depth, clamped)
					}
				}
			})
		}
	}
	for _, delay := range []time.Duration{100 * time.Millisecond, 250 * time.Millisecond, time.Second} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			if diff, _ := reachRun(delay, playoutDepth(delay)-1, 60, reachStream(rng, 60, 600), rng); diff == "" {
				t.Errorf("delay %v, seed %d: a ring of %d, one short of the rule, went unnoticed at 60 Hz", delay, seed, playoutDepth(delay)-1)
			}
		}
	}

	// Beyond the rule's 60 Hz the ring is too shallow and says so: a read at
	// the newest stamp is held at the oldest sample the ring still has.
	t.Run("beyond=120Hz", func(t *testing.T) {
		const delay, hz = 100 * time.Millisecond, 120
		depth := playoutDepth(delay)
		b := pose.NewInterpBuffer(delay, depth, nil)
		var sent []pose.Pose
		for k := 0; k < 200; k++ {
			p := reachPose(time.Second+time.Duration(k)*time.Second/hz, 0)
			sent = append(sent, p)
			b.Push(p)
			if k < depth {
				continue
			}
			got, ok := b.Sample(p.Time)
			if want := sent[k-depth+1].At(p.Time); !ok || got != want {
				t.Fatalf("delivery %d: Sample(newest) = %v,%v, want the oldest held sample re-stamped %v", k, got, ok, want)
			}
		}
		if got, want := b.Clamped(), uint64(200-depth); got != want {
			t.Fatalf("a ring outrun by its upstream counted %d clamped reads, want all %d", got, want)
		}
		if i, e := b.Stats(); i != 0 || e != 0 {
			t.Fatalf("Stats = %d/%d, want every read clamped", i, e)
		}
	})
}

// TestReplicaPlayoutFootprint bounds what a lecture's learners hold in
// playout history: 64 replicas of 100 entities at the default delay, warmed
// past a full ring, fit in 8.25 MB of post-GC heap. They take 7.75 MB: 6.0 MB
// of rings (two 64-ring slabs of 8 samples each), the rest the playout tables,
// which hold the 64-byte slots with their buffer headers inline, and the
// store's tables. One more sample per ring fails; 64-sample rings took
// 50.0 MB.
func TestReplicaPlayoutFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory is not the replica's")
	}
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	reps := make([]*Replica, 64)
	var ents []protocol.EntityState
	for i := range reps {
		reps[i], ents = applyFixture(100)
	}
	d := &protocol.Delta{Changed: ents}
	for round := uint64(2); round < 20; round++ {
		now := time.Duration(round) * 33 * ms
		for k := range d.Changed {
			d.Changed[k].CapturedAt = now
		}
		d.BaseTick, d.Tick = round-1, round
		for _, r := range reps {
			if _, ok := r.Apply(d, now); !ok {
				t.Fatal("delta rejected")
			}
		}
	}
	after := heap()
	const limit = 8<<20 + 1<<18
	held := int64(after) - int64(before)
	t.Logf("64 replicas of 100 entities hold %.2f MB", float64(held)/(1<<20))
	if held > limit {
		t.Fatalf("64 replicas of 100 entities hold %.2f MB, want under %.2f MB", float64(held)/(1<<20), float64(limit)/(1<<20))
	}
	runtime.KeepAlive(reps)
}
