package video

import (
	"time"

	"metaclass/internal/protocol"
)

// The media path's wire format. Each direction of a stream carries one kind
// of message on its own path (chunks sender to receiver, nacks back), so an
// encoding is the message's fields alone: no header and no type byte. It is
// built from the state protocol's primitives, and a decode fails the way
// theirs does: protocol.ErrShortFrame for a truncated encoding,
// protocol.ErrBadMessage for trailing bytes.

// Chunk is one transport unit of an encoded (or FEC parity) video shard. K
// data shards plus R parity shards form a recovery group.
type Chunk struct {
	Stream     uint32
	FrameID    uint32
	GroupK     uint8 // data shards in the group
	GroupR     uint8 // parity shards in the group
	ShardIndex uint8 // < GroupK: data, >= GroupK: parity
	Keyframe   bool
	Deadline   time.Duration
	Data       []byte
}

// Encode returns the chunk's encoding.
func (c *Chunk) Encode() []byte {
	var w protocol.Writer
	w.U32(c.Stream)
	w.U32(c.FrameID)
	w.U8(c.GroupK)
	w.U8(c.GroupR)
	w.U8(c.ShardIndex)
	if c.Keyframe {
		w.U8(1)
	} else {
		w.U8(0)
	}
	w.Varint(int64(c.Deadline))
	w.BytesVar(c.Data)
	return w.Bytes()
}

// Decode sets c from an encoding. Data is a copy, so c may outlive b.
func (c *Chunk) Decode(b []byte) error {
	r := protocol.NewReader(b)
	c.Stream = r.U32()
	c.FrameID = r.U32()
	c.GroupK = r.U8()
	c.GroupR = r.U8()
	c.ShardIndex = r.U8()
	c.Keyframe = r.U8() == 1
	c.Deadline = time.Duration(r.Varint())
	c.Data = r.BytesVar()
	return r.ExpectEOF()
}

// Nack asks the video sender to retransmit specific shards of a frame (ARQ
// mode — the baseline strategy the paper's joint-FEC approach beats on
// high-latency paths).
type Nack struct {
	Stream  uint32
	FrameID uint32
	Missing []byte // shard indices
}

// Encode returns the nack's encoding.
func (n *Nack) Encode() []byte {
	var w protocol.Writer
	w.U32(n.Stream)
	w.U32(n.FrameID)
	w.BytesVar(n.Missing)
	return w.Bytes()
}

// Decode sets n from an encoding. Missing is a copy.
func (n *Nack) Decode(b []byte) error {
	r := protocol.NewReader(b)
	n.Stream = r.U32()
	n.FrameID = r.U32()
	n.Missing = r.BytesVar()
	return r.ExpectEOF()
}
