package video

import (
	"encoding/hex"
	"errors"
	"reflect"
	"testing"
	"time"

	"metaclass/internal/protocol"
)

// TestChunkAndNackRoundTrip: a Chunk and a Nack survive their encoding, keep
// the byte layout they had as the state protocol's wire types 13 and 16 (the
// payloads of those frames, header and checksum stripped), refuse a truncated
// encoding and a trailing byte, and decode into copies of the input.
func TestChunkAndNackRoundTrip(t *testing.T) {
	chunk := &Chunk{Stream: 1, FrameID: 500, GroupK: 8, GroupR: 2, ShardIndex: 9,
		Keyframe: true, Deadline: 150 * time.Millisecond, Data: []byte("shard-bytes")}
	nack := &Nack{Stream: 1, FrameID: 500, Missing: []byte{2, 7}}
	type message interface {
		Encode() []byte
		Decode([]byte) error
	}
	for _, c := range []struct {
		name      string
		sent, got message
	}{
		{"Chunk", chunk, new(Chunk)},
		{"Nack", nack, new(Nack)},
	} {
		t.Run(c.name, func(t *testing.T) {
			b := c.sent.Encode()
			if err := c.got.Decode(b); err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if !reflect.DeepEqual(c.sent, c.got) {
				t.Errorf("round trip mismatch:\n sent %+v\n got  %+v", c.sent, c.got)
			}
			if err := c.got.Decode(b[:len(b)-1]); !errors.Is(err, protocol.ErrShortFrame) {
				t.Errorf("truncated: err = %v, want protocol.ErrShortFrame", err)
			}
			if err := c.got.Decode(append(b[:len(b):len(b)], 0)); !errors.Is(err, protocol.ErrBadMessage) {
				t.Errorf("trailing byte: err = %v, want protocol.ErrBadMessage", err)
			}
		})
	}

	for _, c := range []struct {
		name string
		sent message
		want string
	}{
		{"ChunkLayout", &Chunk{Stream: 1, FrameID: 2, GroupK: 8, GroupR: 3, ShardIndex: 9,
			Keyframe: true, Deadline: time.Second, Data: []byte{1, 2, 3, 4}},
			"00000001000000020803090180a8d6b9070401020304"},
		{"NackLayout", &Nack{Stream: 1, FrameID: 2, Missing: []byte{0, 9}}, "0000000100000002020009"},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := hex.EncodeToString(c.sent.Encode()); got != c.want {
				t.Errorf("%+v encodes as %s, want %s", c.sent, got, c.want)
			}
		})
	}

	b := chunk.Encode()
	var got Chunk
	if err := got.Decode(b); err != nil {
		t.Fatal(err)
	}
	for i := range b {
		b[i] = 0
	}
	if string(got.Data) != "shard-bytes" {
		t.Errorf("decoded Data aliases the input: %q after the input was zeroed", got.Data)
	}
}
