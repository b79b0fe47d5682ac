package protocol

import (
	"bytes"
	"hash/crc32"
	"testing"
	"testing/quick"
	"time"

	"metaclass/internal/mathx"
)

// referenceEncode is the original two-buffer seed encoder (payload writer,
// then header writer plus copy). EncodeFrame, which writes the payload first
// and seals the header in front of it, must stay byte-identical to it for
// every message.
func referenceEncode(t testing.TB, msg Message) []byte {
	t.Helper()
	var payload Writer
	msg.encode(&payload)
	if payload.Len() > MaxPayload {
		t.Fatalf("reference payload too large: %d", payload.Len())
	}
	w := NewWriterSize(headerSize + payload.Len() + 10)
	w.U16(Magic)
	w.U8(Version)
	w.U8(uint8(msg.Type()))
	w.UVarint(uint64(payload.Len()))
	w.Raw(payload.Bytes())
	w.U32(crc32.ChecksumIEEE(w.Bytes()))
	return w.Bytes()
}

func TestEncodeMatchesReferenceAllTypes(t *testing.T) {
	var reused []byte
	for _, msg := range allMessages() {
		t.Run(msg.Type().String(), func(t *testing.T) {
			want := referenceEncode(t, msg)
			got, err := AppendEncode(nil, msg)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			if !bytes.Equal(want, got) {
				t.Errorf("Encode diverged from reference:\n want %x\n got  %x", want, got)
			}
			appended, err := AppendEncode(nil, msg)
			if err != nil {
				t.Fatalf("AppendEncode: %v", err)
			}
			if !bytes.Equal(want, appended) {
				t.Errorf("AppendEncode diverged from reference:\n want %x\n got  %x", want, appended)
			}
			// Appending after an existing prefix must leave the prefix
			// intact and produce the same frame bytes.
			prefix := []byte{0xAA, 0xBB, 0xCC}
			both, err := AppendEncode(prefix, msg)
			if err != nil {
				t.Fatalf("AppendEncode with prefix: %v", err)
			}
			if !bytes.Equal(both[:3], prefix) || !bytes.Equal(both[3:], want) {
				t.Errorf("AppendEncode with prefix diverged")
			}
			// Reusing a scratch buffer across messages must still match.
			reused, err = AppendEncode(reused[:0], msg)
			if err != nil {
				t.Fatalf("AppendEncode reused: %v", err)
			}
			if !bytes.Equal(want, reused) {
				t.Errorf("AppendEncode into reused buffer diverged")
			}
		})
	}
}

func TestQuickEncodeEquivalence(t *testing.T) {
	f := func(p uint32, seq uint32, cap int64, pos [3]int64, quat [4]int16, vel [3]int64, expr []byte) bool {
		msgs := []Message{
			&PoseUpdate{Participant: ParticipantID(p), Seq: seq,
				CapturedAt: time.Duration(cap), Pose: WirePose{PosMM: pos, Quat: quat}, VelMMS: vel},
			&Delta{BaseTick: uint64(seq), Tick: uint64(seq) + 1, Changed: []EntityState{{
				Participant: ParticipantID(p), Pose: WirePose{PosMM: pos}, Expression: expr,
			}}},
		}
		for _, m := range msgs {
			want := referenceEncode(t, m)
			got, err := AppendEncode(nil, m)
			if err != nil || !bytes.Equal(want, got) {
				return false
			}
			appended, err := AppendEncode(nil, m)
			if err != nil || !bytes.Equal(want, appended) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Frames returned by AppendEncode must never alias a pooled frame: later
// encodes (which reuse the pool) must not disturb earlier frames, and
// corrupting a returned frame must not poison later encodes.
func TestEncodeFramesDoNotAliasPool(t *testing.T) {
	msgs := allMessages()
	frames := make([][]byte, len(msgs))
	copies := make([][]byte, len(msgs))
	for i, m := range msgs {
		frame, err := AppendEncode(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = frame
		copies[i] = append([]byte(nil), frame...)
	}
	for i := range frames {
		if !bytes.Equal(frames[i], copies[i]) {
			t.Fatalf("frame %d mutated by a later AppendEncode (aliases a pooled frame)", i)
		}
	}
	// Scribble over a returned frame, then re-encode: output must be clean.
	for i := range frames[0] {
		frames[0][i] = 0xFF
	}
	clean, err := AppendEncode(nil, msgs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(clean, copies[0]) {
		t.Error("AppendEncode output polluted by a mutated earlier frame")
	}
}

func TestAppendEncodeOversizeLeavesDstIntact(t *testing.T) {
	dst := []byte{1, 2, 3}
	m := &Leave{Reason: string(make([]byte, MaxPayload+1))}
	out, err := AppendEncode(dst, m)
	if err == nil {
		t.Fatal("AppendEncode accepted oversize payload")
	}
	if !bytes.Equal(out, []byte{1, 2, 3}) {
		t.Errorf("dst disturbed on error: %x", out)
	}
}

func BenchmarkAppendEncodePoseUpdate(b *testing.B) {
	m := &PoseUpdate{Participant: 1, Seq: 100,
		Pose: QuantizePose(mathx.V3(2, 1, 3), mathx.QuatIdentity())}
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = AppendEncode(buf[:0], m)
		if err != nil {
			b.Fatal(err)
		}
	}
}
