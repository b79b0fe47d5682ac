package protocol

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// parseFrame validates a frame's magic, version, length, and checksum,
// returning the message type, the payload bytes (aliasing frame), and the
// total frame size consumed. It allocates nothing.
func parseFrame(frame []byte) (t MsgType, payload []byte, size int, err error) {
	r := Reader{buf: frame}
	if magic := r.U16(); r.Err() != nil || magic != Magic {
		if r.Err() != nil {
			return 0, nil, 0, ErrShortFrame
		}
		return 0, nil, 0, ErrBadMagic
	}
	if v := r.U8(); r.Err() != nil || v != Version {
		if r.Err() != nil {
			return 0, nil, 0, ErrShortFrame
		}
		return 0, nil, 0, fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	t = MsgType(r.U8())
	plen := r.UVarint()
	if r.Err() != nil {
		return 0, nil, 0, ErrShortFrame
	}
	if plen > MaxPayload {
		return 0, nil, 0, fmt.Errorf("%w: %d bytes", ErrTooLarge, plen)
	}
	if uint64(r.Remaining()) < plen+4 {
		return 0, nil, 0, ErrShortFrame
	}
	bodyEnd := len(frame) - r.Remaining() + int(plen)
	payload = frame[len(frame)-r.Remaining() : bodyEnd]
	want := binary.BigEndian.Uint32(frame[bodyEnd : bodyEnd+4])
	if got := crc32.ChecksumIEEE(frame[:bodyEnd]); got != want {
		return 0, nil, 0, ErrBadChecksum
	}
	return t, payload, bodyEnd + 4, nil
}

// Decode parses a frame produced by EncodeFrame, validating magic, version,
// length, and checksum. It returns the decoded message and the total frame
// size consumed, allowing streams of concatenated frames to be parsed.
// It decodes with a Decoder of its own, so the message is the caller's to
// keep; receive loops that can respect the Decoder contract should reuse a
// Decoder instead, which allocates nothing.
func Decode(frame []byte) (Message, int, error) {
	return new(Decoder).Decode(frame)
}

// Decoder is the pooled receive path: it owns one reusable message value per
// wire type plus a reusable payload reader, so steady-state decoding
// allocates nothing (entity expressions are still fresh copies and safe to
// retain). It knows only the messages product nodes speak: a frame of any
// other type, a retired number included, is refused at the type lookup
// before its payload is read.
//
// The returned Message is valid until the Decoder's next Decode call; callers
// must consume (or copy) it before decoding the next frame. A Decoder is not
// safe for concurrent use — one per receive goroutine.
type Decoder struct {
	r        Reader
	hello    Hello
	helloAck HelloAck
	leave    Leave
	pose     PoseUpdate
	snapshot Snapshot
	delta    Delta
	ack      Ack
	ping     Ping
	pong     Pong
}

// message returns the Decoder's reusable value for a wire type.
func (d *Decoder) message(t MsgType) (Message, error) {
	switch t {
	case TypeHello:
		return &d.hello, nil
	case TypeHelloAck:
		return &d.helloAck, nil
	case TypeLeave:
		return &d.leave, nil
	case TypePoseUpdate:
		return &d.pose, nil
	case TypeSnapshot:
		return &d.snapshot, nil
	case TypeDelta:
		return &d.delta, nil
	case TypeAck:
		return &d.ack, nil
	case TypePing:
		return &d.ping, nil
	case TypePong:
		return &d.pong, nil
	default:
		return nil, fmt.Errorf("%w: unknown type %d", ErrBadMessage, uint8(t))
	}
}

// Decode parses a frame, validating it as the package-level Decode
// describes, into the Decoder's reusable message values. Message decode methods reuse slice capacity
// (Snapshot.Entities, Delta.Changed/Removed) across calls, so the hot
// replication receive path performs zero allocations per frame.
func (d *Decoder) Decode(frame []byte) (Message, int, error) {
	t, payload, size, err := parseFrame(frame)
	if err != nil {
		return nil, 0, err
	}
	msg, err := d.message(t)
	if err != nil {
		return nil, 0, err
	}
	d.r = Reader{buf: payload}
	if err := msg.decode(&d.r); err != nil {
		// Never retain scratch grown for a frame that failed to decode: a
		// malformed frame must not pin oversized slices in the pool.
		d.snapshot.Entities = nil
		d.delta.Changed, d.delta.Removed = nil, nil
		return nil, 0, fmt.Errorf("decoding %v: %w", t, err)
	}
	return msg, size, nil
}
