package protocol

import (
	"encoding/binary"
	"fmt"
	"time"

	"metaclass/internal/mathx"
	"metaclass/internal/pose"
)

// MsgType enumerates wire message types. Values start at 1 so an accidental
// zero byte is never a valid type.
type MsgType uint8

// Message types. A type's number is its wire byte. 3, 6, 7, 14 and 15
// belonged to Join, ExpressionUpdate, SeatAssign, AudioFrame and
// ActivityEvent, which no deployment sent, and 13 and 16 to the lecture
// video's chunk and nack, which no node handled and which now have their own
// framing in package video. They stay reserved so a later type can never be
// mistaken for a frame of any.
const (
	TypeHello MsgType = iota + 1
	TypeHelloAck
	_ // 3: was Join
	TypeLeave
	TypePoseUpdate
	_ // 6: was ExpressionUpdate
	_ // 7: was SeatAssign
	TypeSnapshot
	TypeDelta
	TypeAck
	TypePing
	TypePong
	_       // 13: was VideoChunk
	_       // 14: was AudioFrame
	_       // 15: was ActivityEvent
	_       // 16: was Nack
	typeMax // sentinel, keep last
)

var typeNames = map[MsgType]string{
	TypeHello:      "Hello",
	TypeHelloAck:   "HelloAck",
	TypeLeave:      "Leave",
	TypePoseUpdate: "PoseUpdate",
	TypeSnapshot:   "Snapshot",
	TypeDelta:      "Delta",
	TypeAck:        "Ack",
	TypePing:       "Ping",
	TypePong:       "Pong",
}

// String implements fmt.Stringer.
func (t MsgType) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// Valid reports whether t is a known message type (a retired number is not).
func (t MsgType) Valid() bool {
	_, ok := typeNames[t]
	return ok
}

// ParticipantID identifies a learner, educator or guest across the
// deployment. IDs are assigned by the classroom session layer.
type ParticipantID uint32

// ClassroomID identifies a physical or virtual classroom.
type ClassroomID uint16

// Role is the participant's function in the session.
type Role uint8

// Roles.
const (
	RoleLearner Role = iota + 1
	RoleEducator
	RoleGuest
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case RoleLearner:
		return "learner"
	case RoleEducator:
		return "educator"
	case RoleGuest:
		return "guest"
	default:
		return fmt.Sprintf("Role(%d)", uint8(r))
	}
}

// Message is implemented by every protocol message.
type Message interface {
	Type() MsgType
	encode(w *Writer)
	decode(r *Reader) error
}

// --- pose quantization -------------------------------------------------

// Positions travel as millimeter integers (zigzag varint per axis),
// orientations as four int16 components of the unit quaternion. Quantization
// error is sub-millimeter / <0.01 degrees — far below tracking noise.

const quatScale = 32767

// WirePose is the quantized on-wire pose.
type WirePose struct {
	PosMM [3]int64
	Quat  [4]int16
}

// QuantizePose converts a world pose to wire form.
func QuantizePose(pos mathx.Vec3, rot mathx.Quat) WirePose {
	rot = rot.Normalize()
	return WirePose{
		PosMM: [3]int64{
			int64(pos.X * 1000), int64(pos.Y * 1000), int64(pos.Z * 1000),
		},
		Quat: [4]int16{
			int16(rot.W * quatScale), int16(rot.X * quatScale),
			int16(rot.Y * quatScale), int16(rot.Z * quatScale),
		},
	}
}

// Dequantize converts the wire pose back to world coordinates.
func (p WirePose) Dequantize() (mathx.Vec3, mathx.Quat) {
	rot := mathx.Quat{
		W: float64(p.Quat[0]) / quatScale, X: float64(p.Quat[1]) / quatScale,
		Y: float64(p.Quat[2]) / quatScale, Z: float64(p.Quat[3]) / quatScale,
	}.Normalize()
	return p.Position(), rot
}

// Position is Dequantize's position, without normalizing the orientation.
func (p WirePose) Position() mathx.Vec3 {
	return mathx.V3(float64(p.PosMM[0])/1000, float64(p.PosMM[1])/1000, float64(p.PosMM[2])/1000)
}

// Sample converts a tracked pose to its wire fields: the quantized pose and
// the velocity in mm/s per axis, truncated toward zero. The capture stamp is
// the caller's to choose.
func Sample(p pose.Pose) (WirePose, [3]int64) {
	return QuantizePose(p.Position, p.Rotation), [3]int64{
		int64(p.Velocity.X * 1000), int64(p.Velocity.Y * 1000), int64(p.Velocity.Z * 1000),
	}
}

// VelocityOf converts a wire velocity (mm/s per axis) back to m/s. It stays
// small enough to inline: the replica's apply runs it for every entity.
func VelocityOf(mms [3]int64) mathx.Vec3 {
	return mathx.V3(float64(mms[0])/1000, float64(mms[1])/1000, float64(mms[2])/1000)
}

func (p WirePose) encode(w *Writer) {
	for _, v := range p.PosMM {
		w.Varint(v)
	}
	for _, q := range p.Quat {
		w.I16(q)
	}
}

func (p *WirePose) decode(r *Reader) {
	for i := range p.PosMM {
		p.PosMM[i] = r.Varint()
	}
	for i := range p.Quat {
		p.Quat[i] = r.I16()
	}
}

// --- handshake ----------------------------------------------------------

// Hello opens a connection from a client or peer server.
type Hello struct {
	Participant ParticipantID
	Classroom   ClassroomID
	Role        Role
	Name        string
}

// Type implements Message.
func (*Hello) Type() MsgType { return TypeHello }

func (m *Hello) encode(w *Writer) {
	w.U32(uint32(m.Participant))
	w.U16(uint16(m.Classroom))
	w.U8(uint8(m.Role))
	w.String(m.Name)
}

func (m *Hello) decode(r *Reader) error {
	m.Participant = ParticipantID(r.U32())
	m.Classroom = ClassroomID(r.U16())
	m.Role = Role(r.U8())
	m.Name = r.String()
	return r.ExpectEOF()
}

// HelloAck acknowledges a Hello, assigning the server tick rate.
type HelloAck struct {
	Participant ParticipantID
	TickRateHz  uint16
	ServerTick  uint64
}

// Type implements Message.
func (*HelloAck) Type() MsgType { return TypeHelloAck }

func (m *HelloAck) encode(w *Writer) {
	w.U32(uint32(m.Participant))
	w.U16(m.TickRateHz)
	w.UVarint(m.ServerTick)
}

func (m *HelloAck) decode(r *Reader) error {
	m.Participant = ParticipantID(r.U32())
	m.TickRateHz = r.U16()
	m.ServerTick = r.UVarint()
	return r.ExpectEOF()
}

// Leave announces a participant leaving.
type Leave struct {
	Participant ParticipantID
	Reason      string
}

// Type implements Message.
func (*Leave) Type() MsgType { return TypeLeave }

func (m *Leave) encode(w *Writer) {
	w.U32(uint32(m.Participant))
	w.String(m.Reason)
}

func (m *Leave) decode(r *Reader) error {
	m.Participant = ParticipantID(r.U32())
	m.Reason = r.String()
	return r.ExpectEOF()
}

// --- state updates -------------------------------------------------------

// PoseUpdate carries one participant's tracked pose at a sample instant.
// Velocity enables receiver-side dead reckoning (mm/s per axis).
type PoseUpdate struct {
	Participant ParticipantID
	Seq         uint32
	CapturedAt  time.Duration // sender virtual-time capture stamp
	Pose        WirePose
	VelMMS      [3]int64
}

// Type implements Message.
func (*PoseUpdate) Type() MsgType { return TypePoseUpdate }

func (m *PoseUpdate) encode(w *Writer) {
	w.U32(uint32(m.Participant))
	w.U32(m.Seq)
	w.Varint(int64(m.CapturedAt))
	m.Pose.encode(w)
	for _, v := range m.VelMMS {
		w.Varint(v)
	}
}

func (m *PoseUpdate) decode(r *Reader) error {
	m.Participant = ParticipantID(r.U32())
	m.Seq = r.U32()
	m.CapturedAt = time.Duration(r.Varint())
	m.Pose.decode(r)
	for i := range m.VelMMS {
		m.VelMMS[i] = r.Varint()
	}
	return r.ExpectEOF()
}

// EntityState is one participant's replicated state inside a Snapshot/Delta.
type EntityState struct {
	Participant ParticipantID
	// Home is the classroom authoring this entity (0 = cloud/remote).
	Home ClassroomID
	// CapturedAt is the sensor capture stamp of the pose, in the deployment-
	// wide virtual timebase; receivers use it for interpolation and for
	// motion-to-photon latency accounting.
	CapturedAt time.Duration
	Pose       WirePose
	VelMMS     [3]int64
	Expression []byte
	Seat       uint16
	Flags      uint8
}

// Entity flags.
const (
	FlagSpeaking uint8 = 1 << iota
	FlagHandRaised
	FlagPresenting
)

// encode makes room once for everything before the expression bytes — at
// most maxEntityFixed — and writes it by index: the reserve is what makes
// those writes in bounds. The expression, then seat and flags, are plain
// appends. A buffer too small grows the way it did when every field was an
// append, by one byte past its capacity, so a pooled frame's capacity climbs
// the same size classes.
func (e *EntityState) encode(w *Writer) {
	i := len(w.buf)
	for cap(w.buf)-i < maxEntityFixed {
		w.buf = append(w.buf[:cap(w.buf)], 0)[:i]
	}
	b := w.buf[:i+maxEntityFixed]
	binary.BigEndian.PutUint32(b[i:], uint32(e.Participant))
	binary.BigEndian.PutUint16(b[i+4:], uint16(e.Home))
	i = putVarint(b, i+6, int64(e.CapturedAt))
	for _, v := range e.Pose.PosMM {
		i = putVarint(b, i, v)
	}
	q := e.Pose.Quat
	binary.BigEndian.PutUint64(b[i:], uint64(uint16(q[0]))<<48|uint64(uint16(q[1]))<<32|uint64(uint16(q[2]))<<16|uint64(uint16(q[3])))
	i += 8
	for _, v := range e.VelMMS {
		i = putVarint(b, i, v)
	}
	i += binary.PutUvarint(b[i:], uint64(len(e.Expression)))
	w.buf = append(b[:i], e.Expression...)
	w.buf = append(w.buf, byte(e.Seat>>8), byte(e.Seat), e.Flags)
}

// putVarint writes v as a zigzag varint at b[i:] and returns the index after
// it.
func putVarint(b []byte, i int, v int64) int {
	x := uint64(v)<<1 ^ uint64(v>>63)
	for x >= 0x80 {
		b[i] = byte(x) | 0x80
		x >>= 7
		i++
	}
	b[i] = byte(x)
	return i + 1
}

// decode makes one bounds decision per entity: with maxEntityFixed bytes
// unread, everything before the expression is in bounds wherever the varints
// end, so it is decoded from a local slice and the offset committed once.
// With fewer bytes than that, or a varint that path will not take, the entity
// is decoded field by field from its first byte — the path that owns the last
// entities of every frame, every truncated frame and every error.
func (e *EntityState) decode(r *Reader) {
	if r.err != nil || r.Remaining() < maxEntityFixed || !e.decodeFast(r) {
		e.decodeChecked(r)
	}
}

// decodeFast decodes e from r.buf[r.off:], which the caller has checked holds
// at least maxEntityFixed bytes: the fields before the expression without
// further checks, the rest through the checked reads. A varint longer than
// ten bytes or overflowing 64 bits returns false with r untouched: e is then
// partly written and decodeChecked must decode it again, which is what gives
// that input the error, offset and zeroed fields it has always had.
func (e *EntityState) decodeFast(r *Reader) bool {
	b := r.buf[r.off : r.off+maxEntityFixed]
	e.Participant = ParticipantID(binary.BigEndian.Uint32(b))
	e.Home = ClassroomID(binary.BigEndian.Uint16(b[4:]))
	i := 6
	var vs [7]int64
	for k := range vs {
		if k == 4 { // the quaternion sits between position and velocity
			q := binary.BigEndian.Uint64(b[i:])
			e.Pose.Quat = [4]int16{int16(q >> 48), int16(q >> 32), int16(q >> 16), int16(q)}
			i += 8
		}
		var x uint64
		for s := uint(0); ; s += 7 {
			c := b[i]
			i++
			if c < 0x80 {
				if s == 63 && c > 1 {
					return false // overflows 64 bits
				}
				x |= uint64(c) << s
				break
			}
			if s == 63 {
				return false // an eleventh byte
			}
			x |= uint64(c&0x7f) << s
		}
		vs[k] = int64(x>>1) ^ -int64(x&1)
	}
	e.CapturedAt = time.Duration(vs[0])
	e.Pose.PosMM = [3]int64{vs[1], vs[2], vs[3]}
	e.VelMMS = [3]int64{vs[4], vs[5], vs[6]}
	r.off += i
	e.Expression = r.BytesVar()
	e.Seat = r.U16()
	e.Flags = r.U8()
	return true
}

// decodeChecked is the field-by-field path: every read is bounds-checked on
// its own and a failure zeroes the fields after it.
func (e *EntityState) decodeChecked(r *Reader) {
	e.Participant = ParticipantID(r.U32())
	e.Home = ClassroomID(r.U16())
	e.CapturedAt = time.Duration(r.Varint())
	e.Pose.decode(r)
	for i := range e.VelMMS {
		e.VelMMS[i] = r.Varint()
	}
	e.Expression = r.BytesVar()
	e.Seat = r.U16()
	e.Flags = r.U8()
}

// Snapshot is the full replicated state at a server tick.
type Snapshot struct {
	Tick     uint64
	Entities []EntityState
}

// Type implements Message.
func (*Snapshot) Type() MsgType { return TypeSnapshot }

func (m *Snapshot) encode(w *Writer) {
	w.UVarint(m.Tick)
	w.UVarint(uint64(len(m.Entities)))
	for i := range m.Entities {
		m.Entities[i].encode(w)
	}
}

func (m *Snapshot) decode(r *Reader) error {
	m.Tick = r.UVarint()
	n := r.UVarint()
	if r.Err() != nil {
		return r.Err()
	}
	if n > uint64(r.Remaining())/minEntityWire {
		return fmt.Errorf("%w: snapshot claims %d entities", ErrBadMessage, n)
	}
	m.Entities = growEntities(m.Entities, n)
	for i := range m.Entities {
		m.Entities[i].decode(r)
	}
	return r.ExpectEOF()
}

// minEntityWire is the smallest possible encoded EntityState: participant(4)
// + home(2) + minimal varints for capture stamp(1), position(3), velocity(3)
// + quaternion(8) + expression length(1) + seat(2) + flags(1) = 25 bytes. It
// bounds the entity count a Snapshot/Delta header may claim, so a forged
// count cannot force a huge up-front slice allocation (which a pooled
// Decoder would then retain as scratch). TestEntityWireConstants pins it to
// the encoder's output.
const minEntityWire = 25

// maxEntityFixed is the largest possible encoded EntityState up to and
// including its expression-length uvarint: participant(4) + home(2) + seven
// maximal varints + quaternion(8) + a maximal length = 94 bytes. decode takes
// its unchecked path only with this many bytes unread; encode makes room for
// it before writing by index.
const maxEntityFixed = 4 + 2 + 7*binary.MaxVarintLen64 + 8 + binary.MaxVarintLen64

// growEntities resizes s to n elements, reusing capacity when the slice is a
// Decoder's retained scratch; every element is fully overwritten by decode.
// A one-shot decode (nil s) of zero entities stays nil.
func growEntities(s []EntityState, n uint64) []EntityState {
	if uint64(cap(s)) >= n {
		return s[:n]
	}
	return make([]EntityState, n)
}

// Delta carries only entities changed since BaseTick (which the receiver
// acknowledged), plus explicit removals.
type Delta struct {
	BaseTick uint64
	Tick     uint64
	Changed  []EntityState
	Removed  []ParticipantID
}

// Type implements Message.
func (*Delta) Type() MsgType { return TypeDelta }

func (m *Delta) encode(w *Writer) {
	w.UVarint(m.BaseTick)
	w.UVarint(m.Tick)
	w.UVarint(uint64(len(m.Changed)))
	for i := range m.Changed {
		m.Changed[i].encode(w)
	}
	w.UVarint(uint64(len(m.Removed)))
	for _, id := range m.Removed {
		w.U32(uint32(id))
	}
}

func (m *Delta) decode(r *Reader) error {
	m.BaseTick = r.UVarint()
	m.Tick = r.UVarint()
	nc := r.UVarint()
	if r.Err() != nil {
		return r.Err()
	}
	if nc > uint64(r.Remaining())/minEntityWire {
		return fmt.Errorf("%w: delta claims %d changes", ErrBadMessage, nc)
	}
	m.Changed = growEntities(m.Changed, nc)
	for i := range m.Changed {
		m.Changed[i].decode(r)
	}
	nr := r.UVarint()
	if r.Err() != nil {
		return r.Err()
	}
	if nr > uint64(r.Remaining())/4+1 {
		return fmt.Errorf("%w: delta claims %d removals", ErrBadMessage, nr)
	}
	m.Removed = m.Removed[:0]
	if nr > 0 {
		if uint64(cap(m.Removed)) < nr {
			m.Removed = make([]ParticipantID, nr)
		} else {
			m.Removed = m.Removed[:nr]
		}
		for i := range m.Removed {
			m.Removed[i] = ParticipantID(r.U32())
		}
	}
	return r.ExpectEOF()
}

// AppendEntity appends e's encoding to dst, growing it at most once: the span
// a Snapshot or Delta carries for e, which depends on e alone, so a sender can
// keep it and build every receiver's message from copies.
func AppendEntity(dst []byte, e *EntityState) []byte {
	if need := len(dst) + maxEntityFixed + len(e.Expression) + 3; cap(dst) < need {
		dst = append(make([]byte, 0, need), dst...)
	}
	w := Writer{buf: dst}
	e.encode(&w)
	return w.buf
}

// Ack confirms receipt of replicated state up to Tick.
type Ack struct {
	Participant ParticipantID
	Tick        uint64
}

// Type implements Message.
func (*Ack) Type() MsgType { return TypeAck }

func (m *Ack) encode(w *Writer) {
	w.U32(uint32(m.Participant))
	w.UVarint(m.Tick)
}

func (m *Ack) decode(r *Reader) error {
	m.Participant = ParticipantID(r.U32())
	m.Tick = r.UVarint()
	return r.ExpectEOF()
}

// Ping measures path RTT; Nonce is echoed in Pong.
type Ping struct {
	Nonce  uint64
	SentAt time.Duration
}

// Type implements Message.
func (*Ping) Type() MsgType { return TypePing }

func (m *Ping) encode(w *Writer) {
	w.U64(m.Nonce)
	w.Varint(int64(m.SentAt))
}

func (m *Ping) decode(r *Reader) error {
	m.Nonce = r.U64()
	m.SentAt = time.Duration(r.Varint())
	return r.ExpectEOF()
}

// Pong answers a Ping.
type Pong struct {
	Nonce  uint64
	SentAt time.Duration // copied from the Ping
}

// Type implements Message.
func (*Pong) Type() MsgType { return TypePong }

func (m *Pong) encode(w *Writer) {
	w.U64(m.Nonce)
	w.Varint(int64(m.SentAt))
}

func (m *Pong) decode(r *Reader) error {
	m.Nonce = r.U64()
	m.SentAt = time.Duration(r.Varint())
	return r.ExpectEOF()
}
