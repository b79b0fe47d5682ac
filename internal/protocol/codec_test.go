package protocol

import (
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"metaclass/internal/mathx"
)

// allMessages returns one populated instance of every message type.
func allMessages() []Message {
	pose := QuantizePose(mathx.V3(1.25, 0.5, -3.75), mathx.QuatAxisAngle(mathx.V3(0, 1, 0), 0.7))
	return []Message{
		&Hello{Participant: 7, Classroom: 2, Role: RoleEducator, Name: "Prof. Wang"},
		&HelloAck{Participant: 7, TickRateHz: 30, ServerTick: 12345},
		&Leave{Participant: 9, Reason: "travel restriction"},
		&PoseUpdate{Participant: 7, Seq: 42, CapturedAt: 1500 * time.Millisecond,
			Pose: pose, VelMMS: [3]int64{120, -5, 900}},
		&Snapshot{Tick: 99, Entities: []EntityState{
			{Participant: 1, Pose: pose, Expression: []byte{1, 2}, Seat: 3, Flags: FlagSpeaking},
			{Participant: 2, Pose: pose, VelMMS: [3]int64{-1, 0, 55}},
		}},
		&Delta{BaseTick: 90, Tick: 99,
			Changed: []EntityState{{Participant: 5, Pose: pose, Flags: FlagHandRaised}},
			Removed: []ParticipantID{3, 4}},
		&Ack{Participant: 7, Tick: 99},
		&Ping{Nonce: 0xdeadbeef, SentAt: 2 * time.Second},
		&Pong{Nonce: 0xdeadbeef, SentAt: 2 * time.Second},
	}
}

func TestRoundTripAllTypes(t *testing.T) {
	for _, msg := range allMessages() {
		t.Run(msg.Type().String(), func(t *testing.T) {
			frame, err := AppendEncode(nil, msg)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			got, n, err := Decode(frame)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if n != len(frame) {
				t.Errorf("consumed %d of %d bytes", n, len(frame))
			}
			if !reflect.DeepEqual(msg, got) {
				t.Errorf("round trip mismatch:\n sent %+v\n got  %+v", msg, got)
			}
		})
	}
}

func TestEveryTypeHasName(t *testing.T) {
	for tt := TypeHello; tt < typeMax; tt++ {
		if slices.Contains(retiredTypes, tt) {
			continue // TestWireTypeNumbersPinned holds these to a refusal
		}
		if !tt.Valid() {
			t.Errorf("type %d reports invalid", tt)
		}
		if tt.String() == "" || tt.String()[0] == 'M' && tt.String()[1] == 's' {
			t.Errorf("type %d missing name: %s", tt, tt)
		}
		if _, err := new(Decoder).message(tt); err != nil {
			t.Errorf("Decoder.message(%v): %v", tt, err)
		}
	}
	if MsgType(0).Valid() || typeMax.Valid() {
		t.Error("sentinel types report valid")
	}
	if MsgType(200).String() != "MsgType(200)" {
		t.Errorf("unknown type String = %s", MsgType(200))
	}
}

// retiredTypes are the wire numbers of deleted message types (Join,
// ExpressionUpdate, SeatAssign, the video chunk, AudioFrame, ActivityEvent,
// the video nack). They stay reserved: a number is never handed to a new
// type.
var retiredTypes = []MsgType{3, 6, 7, 13, 14, 15, 16}

// TestWireTypeNumbersPinned holds every wire type to its number — the type
// byte is the protocol, and the constants are an iota block that a deletion
// or an insertion would renumber — and the retired numbers to a refusal on
// both decode paths.
func TestWireTypeNumbersPinned(t *testing.T) {
	pinned := map[MsgType]uint8{
		TypeHello: 1, TypeHelloAck: 2, TypeLeave: 4, TypePoseUpdate: 5,
		TypeSnapshot: 8, TypeDelta: 9, TypeAck: 10, TypePing: 11, TypePong: 12,
	}
	for mt, n := range pinned {
		if uint8(mt) != n {
			t.Errorf("%v is wire type %d, want %d", mt, uint8(mt), n)
		}
	}
	if want := len(pinned) + len(retiredTypes); int(typeMax)-1 != want {
		t.Errorf("%d wire numbers in use, %d pinned or retired", int(typeMax)-1, want)
	}
	if len(retiredTypeFrames) != len(retiredTypes) {
		t.Fatalf("%d retired frames for %d retired types", len(retiredTypeFrames), len(retiredTypes))
	}
	var dec Decoder
	for i, mt := range retiredTypes {
		if _, taken := pinned[mt]; taken || mt.Valid() {
			t.Errorf("retired type %d is in use", uint8(mt))
		}
		frame := retiredTypeFrames[i]
		if got, _, _, err := parseFrame(frame); err != nil || got != mt {
			t.Fatalf("retired frame %d: parseFrame = type %d, %v; want a well-formed frame of type %d", i, uint8(got), err, uint8(mt))
		}
		if _, _, err := Decode(frame); !errors.Is(err, ErrBadMessage) {
			t.Errorf("Decode of retired type %d: err = %v, want ErrBadMessage", uint8(mt), err)
		}
		if _, _, err := dec.Decode(frame); !errors.Is(err, ErrBadMessage) {
			t.Errorf("Decoder.Decode of retired type %d: err = %v, want ErrBadMessage", uint8(mt), err)
		}
	}
}

// TestRetiredMediaFrameRefusedWithoutCopy: a well-formed frame of wire type
// 13, laid out as the video chunk was with a payload of MaxPayload bytes, is
// refused at the type lookup. The payload is never decoded, so its data is
// never copied.
func TestRetiredMediaFrameRefusedWithoutCopy(t *testing.T) {
	var payload Writer
	payload.U32(1)                                // stream
	payload.U32(2)                                // frame ID
	payload.Raw([]byte{8, 3, 9, 1})               // K, R, shard index, keyframe
	payload.Varint(int64(150 * time.Millisecond)) // deadline
	payload.BytesVar(make([]byte, MaxPayload-payload.Len()-4))
	var w Writer
	w.U16(Magic)
	w.U8(Version)
	w.U8(13)
	w.UVarint(uint64(payload.Len()))
	w.Raw(payload.Bytes())
	w.U32(crc32.ChecksumIEEE(w.Bytes()))
	frame := w.Bytes()
	if mt, p, _, err := parseFrame(frame); err != nil || mt != 13 || len(p) > MaxPayload || len(p) < MaxPayload-8 {
		t.Fatalf("parseFrame = type %d, %d-byte payload, %v; want a well-formed type-13 frame of about MaxPayload", uint8(mt), len(p), err)
	}
	var dec Decoder
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := dec.Decode(frame)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadMessage) {
		t.Fatalf("Decode err = %v, want ErrBadMessage", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 64<<10 {
		t.Fatalf("refusing a %d-byte frame allocated %d bytes, want < %d", len(frame), n, 64<<10)
	}
}

func TestDecodeStreamOfFrames(t *testing.T) {
	var stream []byte
	msgs := allMessages()
	for _, m := range msgs {
		frame, err := AppendEncode(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		stream = append(stream, frame...)
	}
	var decoded []Message
	for len(stream) > 0 {
		m, n, err := Decode(stream)
		if err != nil {
			t.Fatalf("stream decode: %v", err)
		}
		decoded = append(decoded, m)
		stream = stream[n:]
	}
	if len(decoded) != len(msgs) {
		t.Fatalf("decoded %d of %d messages", len(decoded), len(msgs))
	}
}

func TestDecodeCorruption(t *testing.T) {
	frame, err := AppendEncode(nil, &Ack{Participant: 1, Tick: 5})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("bit-flip-anywhere", func(t *testing.T) {
		for i := range frame {
			bad := make([]byte, len(frame))
			copy(bad, frame)
			bad[i] ^= 0x40
			if _, _, err := Decode(bad); err == nil {
				t.Errorf("corruption at byte %d undetected", i)
			}
		}
	})

	t.Run("truncation", func(t *testing.T) {
		for n := 0; n < len(frame); n++ {
			if _, _, err := Decode(frame[:n]); err == nil {
				t.Errorf("truncation to %d bytes undetected", n)
			}
		}
	})

	t.Run("bad-magic", func(t *testing.T) {
		bad := append([]byte{0, 0}, frame[2:]...)
		if _, _, err := Decode(bad); !errors.Is(err, ErrBadMagic) {
			t.Errorf("err = %v, want ErrBadMagic", err)
		}
	})

	t.Run("empty", func(t *testing.T) {
		if _, _, err := Decode(nil); !errors.Is(err, ErrShortFrame) {
			t.Errorf("err = %v, want ErrShortFrame", err)
		}
	})
}

func TestOversizePayloadRejected(t *testing.T) {
	m := &Leave{Reason: string(make([]byte, MaxPayload+1))}
	if _, err := AppendEncode(nil, m); !errors.Is(err, ErrTooLarge) {
		t.Errorf("Encode oversize err = %v, want ErrTooLarge", err)
	}
}

func TestQuantizePoseAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		pos := mathx.V3(rng.Float64()*40-20, rng.Float64()*3, rng.Float64()*40-20)
		rot := mathx.Quat{
			W: rng.NormFloat64(), X: rng.NormFloat64(),
			Y: rng.NormFloat64(), Z: rng.NormFloat64(),
		}.Normalize()
		gotPos, gotRot := QuantizePose(pos, rot).Dequantize()
		if gotPos.Dist(pos) > 0.002 {
			t.Fatalf("position error %v m", gotPos.Dist(pos))
		}
		if gotRot.AngleTo(rot) > 0.001 {
			t.Fatalf("rotation error %v rad", gotRot.AngleTo(rot))
		}
	}
}

func TestPoseUpdateCompact(t *testing.T) {
	// The paper notes sync traffic must stay far below video bitrates; a pose
	// update near the origin should encode in well under 50 bytes.
	m := &PoseUpdate{Participant: 1, Seq: 100, CapturedAt: time.Second,
		Pose: QuantizePose(mathx.V3(2, 1, 3), mathx.QuatIdentity())}
	frame, err := AppendEncode(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) > 50 {
		t.Errorf("pose update frame = %d bytes, want <= 50", len(frame))
	}
}

func TestSnapshotEntityCountBound(t *testing.T) {
	// A forged snapshot claiming absurd entity counts must not allocate.
	var w Writer
	w.U16(Magic)
	w.U8(Version)
	w.U8(uint8(TypeSnapshot))
	var payload Writer
	payload.UVarint(1)              // tick
	payload.UVarint(math.MaxUint32) // entity count lie
	w.UVarint(uint64(payload.Len()))
	w.Raw(payload.Bytes())
	sum := NewWriterSize(4)
	sum.U32(crc32.ChecksumIEEE(w.Bytes()))
	frame := append(w.Bytes(), sum.Bytes()...)
	if _, _, err := Decode(frame); err == nil {
		t.Error("forged snapshot accepted")
	}
}

func TestReaderHelpers(t *testing.T) {
	var w Writer
	w.Varint(-12345)
	w.String("hello")
	w.BytesVar([]byte{9, 8})
	r := NewReader(w.Bytes())
	if got := r.Varint(); got != -12345 {
		t.Errorf("Varint = %v", got)
	}
	if got := r.String(); got != "hello" {
		t.Errorf("String = %q", got)
	}
	b := r.BytesVar()
	if len(b) != 2 || b[0] != 9 {
		t.Errorf("BytesVar = %v", b)
	}
	if err := r.ExpectEOF(); err != nil {
		t.Errorf("ExpectEOF: %v", err)
	}
}

func TestReaderShortReads(t *testing.T) {
	r := NewReader([]byte{1})
	_ = r.U32()
	if r.Err() == nil {
		t.Error("short U32 read not detected")
	}
	// Errors are sticky.
	_ = r.U8()
	if r.Err() == nil {
		t.Error("sticky error lost")
	}
}

func TestStringLengthLie(t *testing.T) {
	var w Writer
	w.UVarint(1000) // claim 1000 bytes
	w.Raw([]byte("short"))
	r := NewReader(w.Bytes())
	_ = r.String()
	if r.Err() == nil {
		t.Error("string length lie not detected")
	}
}

func BenchmarkEncodePoseUpdate(b *testing.B) {
	m := &PoseUpdate{Participant: 1, Seq: 100,
		Pose: QuantizePose(mathx.V3(2, 1, 3), mathx.QuatIdentity())}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := AppendEncode(nil, m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodePoseUpdate(b *testing.B) {
	m := &PoseUpdate{Participant: 1, Seq: 100,
		Pose: QuantizePose(mathx.V3(2, 1, 3), mathx.QuatIdentity())}
	frame, err := AppendEncode(nil, m)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Decode(frame); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeSnapshot100(b *testing.B) {
	snap := &Snapshot{Tick: 1}
	for i := 0; i < 100; i++ {
		snap.Entities = append(snap.Entities, EntityState{
			Participant: ParticipantID(i),
			Pose:        QuantizePose(mathx.V3(float64(i), 1, 2), mathx.QuatIdentity()),
		})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := AppendEncode(nil, snap); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDecoderCoversAllWireTypes locks the Decoder's type table, the one both
// Decode entry points dispatch through: every live wire type answers with a
// message of its own type, and an unknown type is refused.
func TestDecoderCoversAllWireTypes(t *testing.T) {
	var dec Decoder
	for mt := TypeHello; mt < typeMax; mt++ {
		if slices.Contains(retiredTypes, mt) {
			continue // TestWireTypeNumbersPinned holds these to a refusal
		}
		m, err := dec.message(mt)
		if err != nil {
			t.Fatalf("type %v: Decoder.message err=%v", mt, err)
		}
		if m.Type() != mt {
			t.Fatalf("type %v: Decoder.message -> %v", mt, m.Type())
		}
	}
	if _, err := dec.message(typeMax); err == nil {
		t.Error("Decoder.message accepted an unknown type")
	}
}
