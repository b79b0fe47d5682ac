package protocol

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

// Property: every randomly-populated message survives Encode/Decode exactly.
// testing/quick generates the struct fields; we normalize the few fields
// whose wire representation is intentionally lossy or bounded.

func TestQuickRoundTripPoseUpdate(t *testing.T) {
	f := func(p uint32, seq uint32, cap int64, pos [3]int64, quat [4]int16, vel [3]int64) bool {
		m := &PoseUpdate{
			Participant: ParticipantID(p), Seq: seq,
			CapturedAt: time.Duration(cap),
			Pose:       WirePose{PosMM: pos, Quat: quat},
			VelMMS:     vel,
		}
		frame, err := AppendEncode(nil, m)
		if err != nil {
			return false
		}
		got, n, err := Decode(frame)
		return err == nil && n == len(frame) && reflect.DeepEqual(m, got)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickRoundTripEntityStateViaDelta(t *testing.T) {
	f := func(p uint32, home uint16, cap int64, pos [3]int64, expr []byte, seat uint16, flags uint8, removed []uint32) bool {
		if len(expr) == 0 {
			expr = nil // wire cannot distinguish nil from empty
		}
		m := &Delta{BaseTick: 1, Tick: 2,
			Changed: []EntityState{{
				Participant: ParticipantID(p), Home: ClassroomID(home),
				CapturedAt: time.Duration(cap),
				Pose:       WirePose{PosMM: pos},
				Expression: expr, Seat: seat, Flags: flags,
			}},
		}
		for _, r := range removed {
			m.Removed = append(m.Removed, ParticipantID(r))
		}
		frame, err := AppendEncode(nil, m)
		if err != nil {
			return false
		}
		got, _, err := Decode(frame)
		return err == nil && reflect.DeepEqual(m, got)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickRoundTripStrings(t *testing.T) {
	f := func(p uint32, name, reason string) bool {
		hello := &Hello{Participant: ParticipantID(p), Role: RoleGuest, Name: name}
		leave := &Leave{Participant: ParticipantID(p), Reason: reason}
		for _, m := range []Message{hello, leave} {
			frame, err := AppendEncode(nil, m)
			if err != nil {
				return false
			}
			got, _, err := Decode(frame)
			if err != nil || !reflect.DeepEqual(m, got) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Decode never panics on arbitrary byte soup (it must fail
// gracefully — these frames arrive from the open network).
func TestQuickDecodeNeverPanics(t *testing.T) {
	f := func(junk []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _, _ = Decode(junk)
		return true
	}
	cfg := &quick.Config{MaxCount: 2000}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: Decode of a valid frame with a flipped byte either errors or —
// never — yields a different message silently. (CRC must catch it.)
func TestQuickCorruptionDetected(t *testing.T) {
	base := &Ack{Participant: 42, Tick: 777}
	frame, err := AppendEncode(nil, base)
	if err != nil {
		t.Fatal(err)
	}
	f := func(idx int, bit uint8) bool {
		if len(frame) == 0 {
			return true
		}
		i := ((idx % len(frame)) + len(frame)) % len(frame)
		b := bit % 8
		bad := make([]byte, len(frame))
		copy(bad, frame)
		bad[i] ^= 1 << b
		got, _, err := Decode(bad)
		if err != nil {
			return true // detected
		}
		// The only acceptable silent outcome is the identical message
		// (cannot happen for a real bit flip, but keep the property total).
		return reflect.DeepEqual(got, base)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestWirePosePositionMatchesDequantize: the position alone (what the
// interest grid indexes) is Dequantize's, bit for bit, over seeded
// millimetre coordinates of every magnitude and the int64 extremes.
func TestWirePosePositionMatchesDequantize(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	extremes := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	coord := func() int64 {
		switch rng.Intn(3) {
		case 0:
			return extremes[rng.Intn(len(extremes))]
		case 1:
			return rng.Int63n(200_001) - 100_000 // a classroom's span
		default:
			return int64(rng.Uint64())
		}
	}
	for i := 0; i < 10_000; i++ {
		p := WirePose{PosMM: [3]int64{coord(), coord(), coord()}}
		for k := range p.Quat {
			p.Quat[k] = int16(rng.Intn(1 << 16))
		}
		got := p.Position()
		want, _ := p.Dequantize()
		for k, pair := range [][2]float64{{got.X, want.X}, {got.Y, want.Y}, {got.Z, want.Z}} {
			if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
				t.Fatalf("PosMM %v axis %d: Position %v, Dequantize %v", p.PosMM, k, pair[0], pair[1])
			}
		}
	}
}
