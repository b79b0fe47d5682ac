package transport_test

import (
	"testing"
	"time"

	"metaclass/internal/protocol"
	"metaclass/internal/transport"
)

// waitStats polls the room until pred accepts its stats or the deadline
// passes, returning the last snapshot either way.
func waitStats(r *room, timeout time.Duration, pred func(stats) bool) stats {
	deadline := time.Now().Add(timeout)
	for {
		st := r.Stats()
		if pred(st) || time.Now().After(deadline) {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRoomStatsParity pins the session counters for a fixed schedule:
// sessions.joined counts accepted hellos (duplicates ignored), every
// PoseUpdate received is counted exactly once — accepted (client.poses),
// spoofed (recv.spoofed) or pre-hello (recv.unknown_client) — and
// sessions.left counts only sessions that had helloed.
func TestRoomStatsParity(t *testing.T) {
	r := startRoom(t)
	a := hello(t, r.Addr(), 1)
	defer a.Close()
	b := hello(t, r.Addr(), 2)
	c := hello(t, r.Addr(), 3)
	defer c.Close()

	// 5 honest poses from a, 3 from b.
	for seq := uint32(1); seq <= 5; seq++ {
		if err := transport.SendMsg(a, posePayload(1, seq, float64(seq)*0.01)); err != nil {
			t.Fatal(err)
		}
	}
	for seq := uint32(1); seq <= 3; seq++ {
		if err := transport.SendMsg(b, posePayload(2, seq, float64(seq)*0.01)); err != nil {
			t.Fatal(err)
		}
	}
	// 2 spoofed poses from c (counted, rejected: entity 1 belongs to a).
	for seq := uint32(1); seq <= 2; seq++ {
		if err := transport.SendMsg(c, posePayload(1, seq, 90)); err != nil {
			t.Fatal(err)
		}
	}
	// 2 pre-hello poses from a raw connection (counted, rejected).
	raw, err := transport.Dial(r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint32(1); seq <= 2; seq++ {
		if err := transport.SendMsg(raw, posePayload(9, seq, 1)); err != nil {
			t.Fatal(err)
		}
	}
	// A duplicate hello on a's live session is ignored (no second join).
	if err := transport.SendMsg(a, &protocol.Hello{Participant: 1, Role: protocol.RoleLearner, Name: "dup"}); err != nil {
		t.Fatal(err)
	}

	received := func(st stats) uint64 { return st.Poses + st.Spoofed + st.UnknownClient }
	st := waitStats(r, 3*time.Second, func(st stats) bool { return received(st) == 12 })
	if st.Poses != 8 || st.Spoofed != 2 || st.UnknownClient != 2 {
		t.Fatalf("poses: accepted %d, spoofed %d, pre-hello %d; want 12 = honest 8 + spoofed 2 + pre-hello 2",
			st.Poses, st.Spoofed, st.UnknownClient)
	}
	if st.Joined != 3 {
		t.Fatalf("joined = %d, want 3 (duplicate hello must not re-join)", st.Joined)
	}
	if st.Left != 0 {
		t.Fatalf("left = %d before any leave", st.Left)
	}

	// b leaves; the raw never-helloed conn disconnects. Only b counts.
	if err := transport.SendMsg(b, &protocol.Leave{Participant: 2}); err != nil {
		t.Fatal(err)
	}
	_ = raw.Close()
	st = waitStats(r, 3*time.Second, func(st stats) bool { return st.Left == 1 && st.Entities == 1 })
	if st.Left != 1 {
		t.Fatalf("left = %d, want 1 (never-helloed conns do not count)", st.Left)
	}
	if st.Entities != 1 {
		t.Fatalf("entities = %d, want 1 (a only: b removed, spoofs rejected)", st.Entities)
	}
}

// TestRoomStatsAfterClose: Stats after Close reports the server's last real
// state, read once serving has stopped — never a fabricated zero.
func TestRoomStatsAfterClose(t *testing.T) {
	r := startRoom(t)
	a := hello(t, r.Addr(), 1)
	defer a.Close()
	if err := transport.SendMsg(a, posePayload(1, 1, 0.5)); err != nil {
		t.Fatal(err)
	}
	before := waitStats(r, 3*time.Second, func(st stats) bool { return st.Entities == 1 })
	if before.Entities != 1 {
		t.Fatalf("entities = %d before close, want 1", before.Entities)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	after := r.Stats()
	if after != before {
		t.Fatalf("stats changed across close: before %+v, after %+v", before, after)
	}
}

// TestRoomSeatTakeover: a client rejoining with its participant ID while the
// stale session's teardown is still pending must win the seat — the stale
// session is kicked and the new one acks (the loadgen churn workload reuses
// IDs this way).
func TestRoomSeatTakeover(t *testing.T) {
	r := startRoom(t)
	// First session for participant 4; do not close it — the rejoin must kick
	// it server-side.
	stale := hello(t, r.Addr(), 4)
	defer stale.Close()
	fresh := hello(t, r.Addr(), 4) // hello() fails the test if no ack arrives
	defer fresh.Close()
	st := waitStats(r, 3*time.Second, func(st stats) bool { return st.Joined == 2 && st.Left == 1 })
	if st.Joined != 2 || st.Left != 1 {
		t.Fatalf("takeover stats = %+v, want Joined 2, Left 1", st)
	}
}
