// Package protocol defines the binary wire protocol spoken between headsets,
// edge servers, the cloud VR server, and remote clients (the arrows of the
// paper's Fig. 3). The paper observes that avatar-synchronization traffic
// "accounts for less traffic than live video streaming" but must be delivered
// in real time; the encoding is therefore compact (varints, quantized poses)
// and every frame is integrity-checked so it can ride UDP-like lossy links.
//
// Frame layout:
//
//	magic   uint16  0x4D43 ("MC")
//	version uint8   protocol version (currently 1)
//	type    uint8   message type
//	length  uvarint payload byte count
//	payload []byte
//	crc32   uint32  IEEE CRC over everything before it
package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Protocol constants.
const (
	Magic   uint16 = 0x4D43
	Version uint8  = 1

	// MaxPayload bounds a single frame's payload; larger application units
	// are chunked above this layer.
	MaxPayload = 1 << 20
)

// Decoding errors.
var (
	ErrShortFrame  = errors.New("protocol: frame truncated")
	ErrBadMagic    = errors.New("protocol: bad magic")
	ErrBadVersion  = errors.New("protocol: unsupported version")
	ErrBadChecksum = errors.New("protocol: checksum mismatch")
	ErrTooLarge    = errors.New("protocol: payload exceeds MaxPayload")
	ErrBadMessage  = errors.New("protocol: malformed message payload")
)

// Writer serializes primitive values into a growing byte buffer.
// The zero value is ready to use.
type Writer struct {
	buf []byte
}

// NewWriterSize returns a Writer with capacity preallocated.
func NewWriterSize(n int) *Writer { return &Writer{buf: make([]byte, 0, n)} }

// Bytes returns the accumulated buffer (not a copy).
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes written.
func (w *Writer) Len() int { return len(w.buf) }

// sizeUvarint returns the encoded length of v as an unsigned varint.
func sizeUvarint(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// U8 writes one byte.
func (w *Writer) U8(v uint8) {
	w.buf = append(w.buf, v)
}

// U16 writes a big-endian uint16.
func (w *Writer) U16(v uint16) {
	w.buf = binary.BigEndian.AppendUint16(w.buf, v)
}

// U32 writes a big-endian uint32.
func (w *Writer) U32(v uint32) {
	w.buf = binary.BigEndian.AppendUint32(w.buf, v)
}

// U64 writes a big-endian uint64.
func (w *Writer) U64(v uint64) {
	w.buf = binary.BigEndian.AppendUint64(w.buf, v)
}

// UVarint writes an unsigned varint.
func (w *Writer) UVarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

// Varint writes a signed (zigzag) varint.
func (w *Writer) Varint(v int64) {
	w.buf = binary.AppendVarint(w.buf, v)
}

// I16 writes a big-endian int16.
func (w *Writer) I16(v int16) { w.U16(uint16(v)) }

// BytesVar writes a length-prefixed (uvarint) byte slice.
func (w *Writer) BytesVar(b []byte) {
	w.UVarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// String writes a length-prefixed UTF-8 string.
func (w *Writer) String(s string) {
	w.UVarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Raw appends bytes with no length prefix.
func (w *Writer) Raw(b []byte) {
	w.buf = append(w.buf, b...)
}

// Reader deserializes primitives from a byte slice. Methods record the first
// error; callers check Err once at the end, keeping decode paths linear.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps buf for reading.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err returns the first decoding error, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

func (r *Reader) fail() {
	if r.err == nil {
		r.err = ErrShortFrame
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil || r.off+n > len(r.buf) {
		r.fail()
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a big-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// UVarint reads an unsigned varint.
func (r *Reader) UVarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

// Varint reads a signed varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

// I16 reads a big-endian int16.
func (r *Reader) I16() int16 { return int16(r.U16()) }

// BytesVar reads a length-prefixed byte slice (copied).
func (r *Reader) BytesVar() []byte {
	n := r.UVarint()
	if r.err != nil || n == 0 {
		return nil
	}
	if n > uint64(r.Remaining()) {
		r.fail()
		return nil
	}
	b := r.take(int(n))
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.UVarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(r.Remaining()) {
		r.fail()
		return ""
	}
	return string(r.take(int(n)))
}

// ExpectEOF sets an error if unread bytes remain.
func (r *Reader) ExpectEOF() error {
	if r.err != nil {
		return r.err
	}
	if r.Remaining() != 0 {
		r.err = fmt.Errorf("%w: %d trailing bytes", ErrBadMessage, r.Remaining())
	}
	return r.err
}
