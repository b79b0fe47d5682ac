package protocol

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"sync/atomic"
)

// Frame is a pooled, reference-counted wire-frame buffer: the unit of byte
// ownership on the send path. A frame is acquired with one reference,
// retained once per additional holder (e.g. a relay forwarding the frame it
// received), and released by each holder exactly once; the final release
// returns the buffer to a process-wide pool, so steady-state traffic
// allocates no frame bytes at all.
//
// Misuse is detected eagerly: releasing a frame more often than it was
// retained, or touching its bytes after the final release, panics with the
// frame's generation tag — the counter bumped on every trip through the
// pool — so the panic message identifies which incarnation of the buffer
// was mishandled. Detection is best-effort once a buffer has been
// re-acquired (the refcount then belongs to the new holder); long-lived
// holders should snapshot Gen at acquisition and release via ReleaseGen,
// which turns that window into a deterministic panic too.
//
// The refcount and generation are atomic, so frames may be retained and
// released from concurrent goroutines (delivery callbacks, transport write
// loops); the byte contents themselves are written only between acquire and
// the first hand-off.
type Frame struct {
	buf  []byte
	off  int // where the frame's bytes start in buf (after a body's unused header room)
	refs atomic.Int32
	gen  atomic.Uint32
}

// framePool recycles Frame values (and, through them, their grown buffers).
var framePool = sync.Pool{New: func() any { return &Frame{} }}

// Frame accounting is the leak-detector hook: acquires and final releases
// are counted globally, so a test can snapshot FrameAccounting around a
// workload and assert every acquired frame was released (acquired delta ==
// released delta ⇒ zero frames leaked in flight).
var (
	framesAcquired atomic.Uint64
	framesReleased atomic.Uint64
)

// FrameAccounting returns the process-wide frame counters: total frames
// acquired and total final releases. live = acquired - released is the
// number of frames currently held somewhere (in a frame cache, in-flight in
// the network, or leaked).
func FrameAccounting() (acquired, released uint64) {
	return framesAcquired.Load(), framesReleased.Load()
}

// LiveFrames returns the number of frames currently acquired and not yet
// fully released. Only meaningful when the process is quiescent (tests).
func LiveFrames() int64 {
	return int64(framesAcquired.Load()) - int64(framesReleased.Load())
}

// AcquireFrame returns an empty frame with one reference held by the
// caller.
func AcquireFrame() *Frame {
	f := framePool.Get().(*Frame)
	f.buf, f.off = f.buf[:0], 0
	f.refs.Store(1)
	framesAcquired.Add(1)
	return f
}

// CopyFrame returns a frame holding a copy of b, with one reference held by
// the caller (used to re-own borrowed bytes, e.g. a relay forwarding a
// payload it only borrows for the duration of the receive callback).
func CopyFrame(b []byte) *Frame {
	f := AcquireFrame()
	f.buf = append(f.buf, b...)
	return f
}

// FillFrame reads exactly n bytes from r into a pooled frame, returning it
// with one reference held by the caller (the TCP receive path: stream bytes
// land directly in a refcounted buffer, so frame accounting covers real
// sockets the same way it covers the simulated fabric). On a short read the
// frame is released and the read error returned.
func FillFrame(r io.Reader, n int) (*Frame, error) {
	f := AcquireFrame()
	if cap(f.buf) < n {
		f.buf = make([]byte, n)
	} else {
		f.buf = f.buf[:n]
	}
	if _, err := io.ReadFull(r, f.buf); err != nil {
		f.Release()
		return nil, err
	}
	return f, nil
}

// EncodeFrame serializes msg like Encode but into a pooled frame, returning
// it with one reference held by the caller. Steady-state encoding allocates
// nothing once the pool's buffers have grown to the working frame size.
func EncodeFrame(msg Message) (*Frame, error) {
	f := AcquireFrame()
	buf, err := AppendEncode(f.buf, msg)
	if err != nil {
		f.Release()
		return nil, err
	}
	f.buf = buf
	return f, nil
}

// bodyRoom is what AcquireBody leaves in front of a body: the widest header
// a Snapshot or Delta takes — the frame header with the widest length varint
// a legal frame needs, then up to three uvarints (a Delta's base tick, tick
// and entity count).
const bodyRoom = headerSize + maxLenVarint + 3*binary.MaxVarintLen64

// AcquireBody returns a pooled frame, one reference held by the caller, for a
// Snapshot or Delta written body first by a sender that keeps each entity's
// AppendEntity span: AppendSpan each carried entity, then a Delta's removals
// with AppendRemoved, then SealSnapshot or SealDelta. Sealing writes the
// header right-aligned in front of the body and the checksum behind it, so
// nothing is moved, and the frame is byte for byte EncodeFrame's of the
// Snapshot or Delta of the same entities. Until it is sealed the frame is not
// a frame; a seal that fails leaves it to be released.
func AcquireBody() *Frame {
	f := AcquireFrame()
	f.buf = append(f.buf, make([]byte, bodyRoom)...)
	f.off = bodyRoom
	return f
}

// AppendSpan appends one entity's AppendEntity span to a body.
func (f *Frame) AppendSpan(span []byte) { f.buf = append(f.buf, span...) }

// AppendRemoved appends one removed ID to a Delta body, after its spans.
func (f *Frame) AppendRemoved(id ParticipantID) {
	f.buf = binary.BigEndian.AppendUint32(f.buf, uint32(id))
}

// SealSnapshot makes the body the frame of a Snapshot at tick carrying its
// count spans.
func (f *Frame) SealSnapshot(tick uint64, count int) error {
	return f.seal(TypeSnapshot, tick, uint64(count))
}

// SealDelta makes the body the frame of a Delta from base to tick carrying its
// count spans and, behind them, its removed IDs. The removal count goes in
// front of the IDs; a delta rarely carries any, so that is the one move.
func (f *Frame) SealDelta(base, tick uint64, count, removed int) error {
	ids := len(f.buf) - 4*removed
	var n [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(n[:], uint64(removed))
	f.buf = append(f.buf, n[:k]...)
	copy(f.buf[ids+k:], f.buf[ids:len(f.buf)-k])
	copy(f.buf[ids:], n[:k])
	return f.seal(TypeDelta, base, tick, uint64(count))
}

// seal writes the header of a message of type t — the frame header, then the
// payload's leading uvarints — right-aligned in front of the body, and the
// checksum behind it.
func (f *Frame) seal(t MsgType, lead ...uint64) error {
	var head [3 * binary.MaxVarintLen64]byte
	n := 0
	for _, v := range lead {
		n += binary.PutUvarint(head[n:], v)
	}
	plen := n + len(f.buf) - bodyRoom
	if plen > MaxPayload {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, plen)
	}
	start := bodyRoom - n - sizeUvarint(uint64(plen)) - headerSize
	h := f.buf[start:bodyRoom]
	binary.BigEndian.PutUint16(h, Magic)
	h[2], h[3] = Version, uint8(t)
	copy(h[headerSize+binary.PutUvarint(h[headerSize:], uint64(plen)):], head[:n])
	f.off = start
	f.buf = binary.BigEndian.AppendUint32(f.buf, crc32.ChecksumIEEE(f.buf[start:]))
	return nil
}

// Bytes returns the frame's contents. The slice is valid only while the
// caller holds a reference.
func (f *Frame) Bytes() []byte {
	if f.refs.Load() <= 0 {
		panic(fmt.Sprintf("protocol: Frame use-after-release (gen %d)", f.gen.Load()))
	}
	return f.buf[f.off:]
}

// Len returns the frame's length in bytes.
func (f *Frame) Len() int { return len(f.Bytes()) }

// Gen returns the frame's generation tag: the number of times this Frame
// value has been recycled through the pool. Holders that keep a frame
// across scheduling boundaries snapshot it and release via ReleaseGen.
func (f *Frame) Gen() uint32 { return f.gen.Load() }

// Refs returns the current reference count (diagnostics and tests).
func (f *Frame) Refs() int32 { return f.refs.Load() }

// Retain adds a reference; the new holder must Release it exactly once.
func (f *Frame) Retain() {
	if n := f.refs.Add(1); n <= 1 {
		panic(fmt.Sprintf("protocol: Frame retain-after-release (gen %d)", f.gen.Load()))
	}
}

// Release drops one reference. The final release recycles the frame: its
// generation is bumped and the buffer returns to the pool. Releasing more
// often than retained panics with the generation tag.
func (f *Frame) Release() {
	switch n := f.refs.Add(-1); {
	case n > 0:
	case n == 0:
		f.gen.Add(1)
		framesReleased.Add(1)
		framePool.Put(f)
	default:
		panic(fmt.Sprintf("protocol: Frame double-release (gen %d)", f.gen.Load()))
	}
}

// ReleaseGen releases one reference that was taken while the frame was at
// generation gen. If the frame has since been recycled (the holder's
// reference was already released by someone else and the buffer reused),
// it panics instead of corrupting the new incarnation's refcount.
func (f *Frame) ReleaseGen(gen uint32) {
	if g := f.gen.Load(); g != gen {
		panic(fmt.Sprintf("protocol: Frame release with stale generation %d (frame is now gen %d)", gen, g))
	}
	f.Release()
}
