package protocol

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
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
	w    Writer // the frame's bytes are w.buf[off:]
	off  int    // where the frame's bytes start in w.buf (after a body's unused header room)
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
	f.w.buf, f.off = f.w.buf[:0], 0
	f.refs.Store(1)
	framesAcquired.Add(1)
	return f
}

// CopyFrame returns a frame holding a copy of b, with one reference held by
// the caller (used to re-own borrowed bytes, e.g. a relay forwarding a
// payload it only borrows for the duration of the receive callback).
func CopyFrame(b []byte) *Frame {
	f := AcquireFrame()
	f.w.buf = append(f.w.buf, b...)
	return f
}

// fillStep bounds how far FillFrame's buffer runs ahead of the bytes that
// have arrived, so a peer's length prefix alone commits no more than this.
const fillStep = 64 << 10

// FillFrame reads exactly n bytes from r into a pooled frame, returning it
// with one reference held by the caller (the TCP receive path: stream bytes
// land directly in a refcounted buffer, so frame accounting covers real
// sockets the same way it covers the simulated fabric). A pooled buffer
// with room, or a frame of at most fillStep bytes, takes one read; a larger
// frame grows its buffer as the body arrives. On a short read the frame is
// released and the read error returned.
func FillFrame(r io.Reader, n int) (*Frame, error) {
	f := AcquireFrame()
	if cap(f.w.buf) < n {
		f.w.buf = make([]byte, 0, min(n, fillStep))
	}
	for len(f.w.buf) < n {
		if len(f.w.buf) == cap(f.w.buf) {
			f.w.buf = slices.Grow(f.w.buf, min(n-len(f.w.buf), fillStep))
		}
		k, err := io.ReadFull(r, f.w.buf[len(f.w.buf):min(n, cap(f.w.buf))])
		f.w.buf = f.w.buf[:len(f.w.buf)+k]
		if err != nil {
			f.Release()
			return nil, err
		}
	}
	return f, nil
}

// EncodeFrame serializes msg into a self-delimiting, checksummed frame in a
// pooled buffer, returning it with one reference held by the caller: the
// payload is encoded as a body, then sealed like any other. Steady-state
// encoding allocates nothing once the pool's buffers have grown to the
// working frame size.
func EncodeFrame(msg Message) (*Frame, error) {
	f := AcquireBody()
	msg.encode(&f.w)
	if err := f.seal(msg.Type()); err != nil {
		f.Release()
		return nil, err
	}
	return f, nil
}

// AppendEncode appends msg's EncodeFrame bytes to dst and releases the frame,
// returning the extended slice; on error dst is returned unchanged. It is a
// copy-out wrapper kept only for the benchmark's encode kernel
// (bench/kernels.go); ROADMAP item 4 removes it. Senders use EncodeFrame.
func AppendEncode(dst []byte, msg Message) ([]byte, error) {
	f, err := EncodeFrame(msg)
	if err != nil {
		return dst, err
	}
	dst = append(dst, f.Bytes()...)
	f.Release()
	return dst, nil
}

// headerSize is magic(2) + version(1) + type(1); the length varint and
// trailing crc32(4) are variable/fixed additions.
const headerSize = 4

// maxLenVarint is the widest length varint a legal frame can carry:
// MaxPayload (1<<20) fits in 3 varint bytes.
const maxLenVarint = 3

// bodyRoom is what AcquireBody leaves in front of a body: the widest header
// any message takes — the frame header with the widest length varint a legal
// frame needs, then up to three uvarints a sealer writes ahead of the body (a
// Delta's base tick, tick and entity count).
const bodyRoom = headerSize + maxLenVarint + 3*binary.MaxVarintLen64

// AcquireBody returns a pooled frame, one reference held by the caller, whose
// payload is written first and its header last. EncodeFrame writes a whole
// payload into it. A sender that keeps each entity's AppendEntity span writes
// a Snapshot or Delta without its leading uvarints instead: AppendSpan each
// carried entity, then a Delta's removals with AppendRemoved, then
// SealSnapshot or SealDelta, and the frame is byte for byte EncodeFrame's of
// the Snapshot or Delta of the same entities. Sealing writes the header
// right-aligned in front of the body and the checksum behind it, so nothing is
// moved. Until it is sealed the frame is not a frame; a seal that fails leaves
// it to be released.
func AcquireBody() *Frame {
	f := AcquireFrame()
	f.w.buf = append(f.w.buf, make([]byte, bodyRoom)...)
	f.off = bodyRoom
	return f
}

// AppendSpan appends one entity's AppendEntity span to a body.
func (f *Frame) AppendSpan(span []byte) { f.w.Raw(span) }

// AppendRemoved appends one removed ID to a Delta body, after its spans.
func (f *Frame) AppendRemoved(id ParticipantID) { f.w.U32(uint32(id)) }

// SealSnapshot makes the body the frame of a Snapshot at tick carrying its
// count spans.
func (f *Frame) SealSnapshot(tick uint64, count int) error {
	return f.seal(TypeSnapshot, tick, uint64(count))
}

// SealDelta makes the body the frame of a Delta from base to tick carrying its
// count spans and, behind them, its removed IDs. The removal count goes in
// front of the IDs; a delta rarely carries any, so that is the one move.
func (f *Frame) SealDelta(base, tick uint64, count, removed int) error {
	ids := len(f.w.buf) - 4*removed
	var n [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(n[:], uint64(removed))
	f.w.buf = append(f.w.buf, n[:k]...)
	copy(f.w.buf[ids+k:], f.w.buf[ids:len(f.w.buf)-k])
	copy(f.w.buf[ids:], n[:k])
	return f.seal(TypeDelta, base, tick, uint64(count))
}

// seal writes the header of a message of type t — the frame header, then the
// payload's leading uvarints, if the body was written without them —
// right-aligned in front of the body, and the checksum behind it. It is the
// one writer of a frame's header and checksum.
func (f *Frame) seal(t MsgType, lead ...uint64) error {
	var head [3 * binary.MaxVarintLen64]byte
	n := 0
	for _, v := range lead {
		n += binary.PutUvarint(head[n:], v)
	}
	plen := n + len(f.w.buf) - bodyRoom
	if plen > MaxPayload {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, plen)
	}
	start := bodyRoom - n - sizeUvarint(uint64(plen)) - headerSize
	h := f.w.buf[start:bodyRoom]
	binary.BigEndian.PutUint16(h, Magic)
	h[2], h[3] = Version, uint8(t)
	copy(h[headerSize+binary.PutUvarint(h[headerSize:], uint64(plen)):], head[:n])
	f.off = start
	f.w.U32(crc32.ChecksumIEEE(f.w.buf[start:]))
	return nil
}

// Bytes returns the frame's contents. The slice is valid only while the
// caller holds a reference.
func (f *Frame) Bytes() []byte {
	if f.refs.Load() <= 0 {
		panic(fmt.Sprintf("protocol: Frame use-after-release (gen %d)", f.gen.Load()))
	}
	return f.w.buf[f.off:]
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
