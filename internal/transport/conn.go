// Package transport carries the classroom wire protocol over real TCP, so
// nothing above it is simulation-only. Conn carries frames on a stream: the
// same pooled protocol frames the simulated fabric carries, each prefixed
// with a 4-byte big-endian length, with one read path (ReadFrame) and one
// write path (QueueFrame + Flush). Endpoint puts those connections behind
// endpoint.Transport, so every node runs over sockets exactly as it does
// over netsim, and Endpoint.Serve drives one in real time (cmd/classroomd's
// cloud server). Its clients — cmd/loadgen's sessions, each a client.VR on an
// endpoint of its own — reach it with Endpoint.DialAnonymous.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"metaclass/internal/protocol"
)

// MaxFrame bounds a single wire frame (length prefix included).
const MaxFrame = 4 + protocol.MaxPayload + 64

// ErrFrameTooLarge reports an oversized incoming frame.
var ErrFrameTooLarge = errors.New("transport: frame exceeds MaxFrame")

// Conn is a frame-oriented connection. Reads must come from a single
// goroutine; writes are internally serialized and safe from any goroutine.
type Conn struct {
	c  net.Conn
	r  *bufio.Reader
	mu sync.Mutex // guards writes and the pending batch

	// pending is the queued write batch: refcounted frames whose bytes may be
	// shared with other holders (a forwarded receive frame, in-flight sends)
	// and flushed to the socket with one vectored write — no per-connection
	// copy.
	pending   []*protocol.Frame
	flushHdrs [][4]byte
	flushBufs net.Buffers

	closeOnce sync.Once
}

// NewConn wraps an established net.Conn.
func NewConn(c net.Conn) *Conn {
	return &Conn{c: c, r: bufio.NewReaderSize(c, 64<<10)}
}

// Dial connects to a classroom server.
func Dial(addr string) (*Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return NewConn(c), nil
}

// QueueFrame appends f to the connection's pending write batch, taking
// ownership of one reference: the reference is released when the batch is
// flushed (success or error) or the connection is closed with the batch
// still queued. The frame's bytes are never copied — the flush writes the
// shared refcounted buffer straight to the socket.
func (c *Conn) QueueFrame(f *protocol.Frame) {
	c.mu.Lock()
	c.pending = append(c.pending, f)
	c.mu.Unlock()
}

// Flush writes every queued frame — each prefixed with its stream length
// header — to the socket with a single vectored write, then releases every
// queued reference on every outcome. Flushing an empty batch is a no-op.
func (c *Conn) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.pending) == 0 {
		return nil
	}
	for len(c.flushHdrs) < len(c.pending) {
		c.flushHdrs = append(c.flushHdrs, [4]byte{})
	}
	bufs := c.flushBufs[:0]
	for i, f := range c.pending {
		b := f.Bytes()
		binary.BigEndian.PutUint32(c.flushHdrs[i][:], uint32(len(b)))
		bufs = append(bufs, c.flushHdrs[i][:], b)
	}
	// net.Buffers.WriteTo advances through (and may modify) the slice; hand
	// it a local header over our scratch backing and rebuild next flush.
	nb := bufs
	_, err := nb.WriteTo(c.c)
	c.releasePendingLocked()
	c.flushBufs = bufs[:0]
	if err != nil {
		return fmt.Errorf("transport: flush: %w", err)
	}
	return nil
}

// releasePendingLocked drops the batch's references. Callers hold c.mu.
func (c *Conn) releasePendingLocked() {
	for i, f := range c.pending {
		f.Release()
		c.pending[i] = nil
	}
	c.pending = c.pending[:0]
}

// ReadFrame blocks for the next raw protocol frame (stream header stripped),
// returning it in a pooled refcounted buffer owned by the caller; io.EOF
// signals a clean close. Every read takes this path — the endpoint's read
// loop and the name handshake — so frame accounting gates the TCP read side
// exactly as it gates the simulated fabric.
func (c *Conn) ReadFrame() (*protocol.Frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(c.r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	return protocol.FillFrame(c.r, int(n))
}

// Close shuts the connection down and releases any queued-but-unflushed
// frames. Safe to call repeatedly.
func (c *Conn) Close() error {
	var err error
	c.closeOnce.Do(func() { err = c.c.Close() })
	c.mu.Lock()
	c.releasePendingLocked()
	c.mu.Unlock()
	return err
}
