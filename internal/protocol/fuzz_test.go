package protocol

import (
	"bytes"
	"encoding/hex"
	"slices"
	"testing"
	"time"
)

// fuzzSeedMessages is one representative message per wire type, covering
// every decode path (strings, byte blobs, entity lists, varint extremes).
func fuzzSeedMessages() []Message {
	return []Message{
		&Hello{Participant: 7, Classroom: 2, Role: RoleEducator, Name: "prof"},
		&HelloAck{Participant: 7, TickRateHz: 30, ServerTick: 1 << 40},
		&Leave{Participant: 9, Reason: "left"},
		&PoseUpdate{
			Participant: 3, Seq: 1000, CapturedAt: 90 * time.Second,
			Pose:   WirePose{PosMM: [3]int64{-1200, 0, 34000}, Quat: [4]int16{32767, -1, 2, -3}},
			VelMMS: [3]int64{-50, 0, 1400},
		},
		&Snapshot{Tick: 5, Entities: []EntityState{
			{Participant: 1, Home: 1, CapturedAt: time.Second,
				Pose:   WirePose{PosMM: [3]int64{10, 20, 30}, Quat: [4]int16{32767, 0, 0, 0}},
				VelMMS: [3]int64{1, 2, 3}, Expression: []byte{9}, Seat: 4, Flags: FlagSpeaking},
			{Participant: 2},
		}},
		&Delta{BaseTick: 4, Tick: 6,
			Changed: []EntityState{{Participant: 2, CapturedAt: 2 * time.Second}},
			Removed: []ParticipantID{1, 99}},
		&Ack{Participant: 5, Tick: 77},
		&Ping{Nonce: 42, SentAt: 3 * time.Second},
		&Pong{Nonce: 42, SentAt: 3 * time.Second},
	}
}

// fuzzBoundarySeedMessages are the cohort-boundary and entity-count-extreme
// Snapshot/Delta shapes the replicator actually produces at the edges of
// its planning space: the empty first-contact snapshot, a delta that only
// removes, a delta whose base equals its tick (the zero-width ack window),
// and snapshots/deltas at the maximum entity count the length guard admits
// for their payload size (every entity minimal, i.e. exactly minEntityWire
// bytes, so claimed count == payload/minEntityWire).
func fuzzBoundarySeedMessages() []Message {
	minimal := make([]EntityState, 512)
	for i := range minimal {
		minimal[i] = EntityState{Participant: ParticipantID(i)}
	}
	removals := make([]ParticipantID, 300)
	for i := range removals {
		removals[i] = ParticipantID(i * 7)
	}
	return []Message{
		&Snapshot{Tick: 1},                                 // empty classroom keyframe
		&Snapshot{Tick: 1 << 62, Entities: minimal},        // max count for its size
		&Delta{BaseTick: 9, Tick: 9},                       // zero-width window
		&Delta{BaseTick: 3, Tick: 4, Removed: removals},    // removals only
		&Delta{BaseTick: 0, Tick: 1, Changed: minimal[:2]}, // first delta after genesis
		&Delta{BaseTick: 1, Tick: 1 << 40, Changed: minimal, Removed: removals},
	}
}

// retiredTypeFrames are the seeds of the seven retired wire types, 3 (Join),
// 6 (ExpressionUpdate), 7 (SeatAssign), 13 (the video chunk), 14
// (AudioFrame), 15 (ActivityEvent) and 16 (the video nack), byte for byte as
// Encode wrote them while the types existed: well-formed length and
// checksum, a type number no decoder knows any more.
var retiredTypeFrames = [][]byte{
	mustHex("4d4301030f0000000900010106e5ada6e7949f025167ee61"),
	mustHex("4d4301060c0000000300000002030080ff1d5beb7b"),
	mustHex("4d4301071300000003000200110204067fff000000000000677cabd8"),
	mustHex("4d43010d1600000001000000020803090180a8d6b90704010203042ecd3ed9"),
	mustHex("4d43010e10000000040000000680a8d6b90702050619d0c366"),
	mustHex("4d43010f110000000400000001047175697a03613d31717cf0ae"),
	mustHex("4d4301100b00000001000000020200095468a98f"),
}

func mustHex(s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		panic(err)
	}
	return b
}

func addSeedFrames(f *testing.F) {
	f.Helper()
	frames := slices.Clone(retiredTypeFrames)
	for _, msg := range append(fuzzSeedMessages(), fuzzBoundarySeedMessages()...) {
		frame, err := AppendEncode(nil, msg)
		if err != nil {
			f.Fatalf("encoding %v seed: %v", msg.Type(), err)
		}
		frames = append(frames, frame)
	}
	for _, frame := range frames {
		f.Add(frame)
		// A truncated and a corrupted variant steer the fuzzer toward the
		// bounds-checking and checksum paths from the start.
		f.Add(frame[:len(frame)/2])
		flipped := bytes.Clone(frame)
		flipped[len(flipped)/2] ^= 0x40
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Add([]byte{0x4D, 0x43, 1, 0xFF})
}

// FuzzDecode feeds arbitrary bytes to both decode paths: neither may panic,
// over-read, or disagree with the other about validity and result.
func FuzzDecode(f *testing.F) {
	addSeedFrames(f)
	f.Fuzz(func(t *testing.T, frame []byte) {
		msg, n, err := Decode(frame)
		var dec Decoder
		pmsg, pn, perr := dec.Decode(frame)
		if (err == nil) != (perr == nil) {
			t.Fatalf("Decode err = %v but Decoder err = %v", err, perr)
		}
		if err != nil {
			return
		}
		if n <= 0 || n > len(frame) {
			t.Fatalf("consumed %d bytes of a %d-byte input", n, len(frame))
		}
		if pn != n {
			t.Fatalf("Decoder consumed %d, Decode consumed %d", pn, n)
		}
		if msg.Type() != pmsg.Type() {
			t.Fatalf("Decode type %v != Decoder type %v", msg.Type(), pmsg.Type())
		}
		// Both decodes of the same frame must re-encode identically.
		f1, err1 := AppendEncode(nil, msg)
		f2, err2 := AppendEncode(nil, pmsg)
		if err1 != nil || err2 != nil {
			t.Fatalf("re-encode failed: %v / %v", err1, err2)
		}
		if !bytes.Equal(f1, f2) {
			t.Fatalf("one-shot and pooled decodes re-encode differently:\n%x\n%x", f1, f2)
		}
	})
}

// FuzzRoundTrip asserts Encode∘Decode is a fixed point: any frame the decoder
// accepts normalizes in one hop — decoding the re-encoded frame and encoding
// again must reproduce it byte for byte. (The raw input itself may differ
// from its re-encoding: varint fields tolerate non-minimal encodings.)
func FuzzRoundTrip(f *testing.F) {
	addSeedFrames(f)
	f.Fuzz(func(t *testing.T, frame []byte) {
		msg, _, err := Decode(frame)
		if err != nil {
			return
		}
		f1, err := AppendEncode(nil, msg)
		if err != nil {
			// A decoded message always fits MaxPayload; re-encode cannot fail.
			t.Fatalf("re-encoding decoded %v: %v", msg.Type(), err)
		}
		msg2, n2, err := Decode(f1)
		if err != nil {
			t.Fatalf("decoding re-encoded %v: %v", msg.Type(), err)
		}
		if n2 != len(f1) {
			t.Fatalf("re-encoded frame is %d bytes but decode consumed %d", len(f1), n2)
		}
		f2, err := AppendEncode(nil, msg2)
		if err != nil {
			t.Fatalf("second re-encode of %v: %v", msg.Type(), err)
		}
		if !bytes.Equal(f1, f2) {
			t.Fatalf("Encode∘Decode not a fixed point for %v:\n%x\n%x", msg.Type(), f1, f2)
		}
	})
}

// FuzzFrameRoundTrip drives the pooled frame through its whole lifecycle —
// acquire → encode → decode (pooled Decoder) → release → pool reuse — and
// asserts the decoded message survives the buffer's next life. Any aliasing
// between the recycled frame buffer and the Decoder's retained scratch
// (entity slices, expression/media byte fields) shows up as the decoded
// message changing underneath us after the pool hands the bytes to a new
// frame.
func FuzzFrameRoundTrip(f *testing.F) {
	addSeedFrames(f)
	var dec Decoder
	f.Fuzz(func(t *testing.T, data []byte) {
		ref, _, err := Decode(data) // fresh one-shot copy as ground truth
		if err != nil {
			return
		}
		fr, err := EncodeFrame(ref)
		if err != nil {
			t.Fatalf("EncodeFrame of decoded %v: %v", ref.Type(), err)
		}
		msg, n, err := dec.Decode(fr.Bytes())
		if err != nil {
			t.Fatalf("decoding pooled frame of %v: %v", ref.Type(), err)
		}
		if n != fr.Len() {
			t.Fatalf("pooled frame is %d bytes, decode consumed %d", fr.Len(), n)
		}
		before, err := AppendEncode(nil, msg)
		if err != nil {
			t.Fatalf("re-encoding decoded message: %v", err)
		}
		// Release the frame and force the pool to reuse (and scribble over)
		// its buffer with a different payload.
		fr.Release()
		scribble, err := EncodeFrame(&Leave{
			Participant: ^ParticipantID(0),
			Reason:      string(bytes.Repeat([]byte{0xAA, 0x55}, 11)),
		})
		if err != nil {
			t.Fatal(err)
		}
		after, err := AppendEncode(nil, msg)
		scribble.Release()
		if err != nil {
			t.Fatalf("re-encoding after pool reuse: %v", err)
		}
		if !bytes.Equal(before, after) {
			t.Fatalf("decoded %v aliases the recycled frame buffer:\nbefore reuse %x\nafter reuse  %x",
				msg.Type(), before, after)
		}
		if !bytes.Equal(before, mustEncode(t, ref)) {
			t.Fatalf("pooled-frame decode of %v diverges from one-shot decode", ref.Type())
		}
	})
}

func mustEncode(t *testing.T, msg Message) []byte {
	t.Helper()
	b, err := AppendEncode(nil, msg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// benchDeltaFrame is a realistic 32-entity delta frame for decode benches.
func benchDeltaFrame(b *testing.B) []byte {
	b.Helper()
	d := &Delta{BaseTick: 100, Tick: 101}
	for i := 0; i < 32; i++ {
		d.Changed = append(d.Changed, EntityState{
			Participant: ParticipantID(i + 1),
			CapturedAt:  time.Duration(i) * time.Millisecond,
			Pose:        WirePose{PosMM: [3]int64{int64(i) * 1200, 0, 4000}, Quat: [4]int16{32767, 0, 0, 0}},
			VelMMS:      [3]int64{100, 0, -100},
		})
	}
	frame, err := AppendEncode(nil, d)
	if err != nil {
		b.Fatal(err)
	}
	return frame
}

// BenchmarkDecodeDelta32 is the one-shot decode path (allocates the message,
// reader, and entity slice per frame).
func BenchmarkDecodeDelta32(b *testing.B) {
	frame := benchDeltaFrame(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Decode(frame); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecoderDelta32 is the pooled receive path: zero allocations per
// frame once the Decoder's scratch has warmed.
func BenchmarkDecoderDelta32(b *testing.B) {
	frame := benchDeltaFrame(b)
	var dec Decoder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := dec.Decode(frame); err != nil {
			b.Fatal(err)
		}
	}
}
