package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"testing"
	"time"

	"metaclass/internal/protocol"
)

// connPair returns the two ends of a loopback TCP connection, closed when
// the test ends.
func connPair(t *testing.T) (c, peer *Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		nc, err := ln.Accept()
		if err == nil {
			accepted <- nc
		}
	}()
	c, err = Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	peer = NewConn(<-accepted)
	t.Cleanup(func() {
		_ = c.Close()
		_ = peer.Close()
	})
	return c, peer
}

// TestConnQueueFlushSharesFrameBytes checks the vectored write batch: queued
// cohort frames reach the peer intact and every reference is consumed, on
// the success path and when flushing into a closed socket.
func TestConnQueueFlushSharesFrameBytes(t *testing.T) {
	live0 := protocol.LiveFrames()
	c, peer := connPair(t)

	// One shared cohort frame queued twice (two recipients in real use) plus
	// a second distinct frame: one flush, one writev, three messages.
	shared, err := protocol.EncodeFrame(&protocol.Ack{Participant: 5, Tick: 77})
	if err != nil {
		t.Fatal(err)
	}
	shared.Retain()
	other, err := protocol.EncodeFrame(&protocol.Ping{Nonce: 9, SentAt: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	c.QueueFrame(shared)
	c.QueueFrame(shared)
	c.QueueFrame(other)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, want := range []protocol.MsgType{protocol.TypeAck, protocol.TypeAck, protocol.TypePing} {
		msg, err := RecvMsg(peer)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if msg.Type() != want {
			t.Fatalf("message %d = %v, want %v", i, msg.Type(), want)
		}
	}

	// Flushing into a closed socket must fail but still release the batch.
	late, err := protocol.EncodeFrame(&protocol.Ack{Tick: 1})
	if err != nil {
		t.Fatal(err)
	}
	_ = c.Close()
	c.QueueFrame(late)
	if err := c.Flush(); err == nil {
		t.Fatal("flush into closed conn succeeded")
	}
	if live := protocol.LiveFrames(); live != live0 {
		t.Fatalf("%d frames leaked by queue/flush", live-live0)
	}
}

// TestConnMessagePathsLeakNoFrames covers the one read and one write path a
// message takes through a Conn (EncodeFrame + QueueFrame + Flush, ReadFrame):
// a round trip, an unencodable message, an oversize length prefix, and a
// closed connection must each report the right error and leave the frame
// accounting at its baseline.
func TestConnMessagePathsLeakNoFrames(t *testing.T) {
	live0 := protocol.LiveFrames()
	c, peer := connPair(t)

	want := &protocol.Leave{Participant: 8, Reason: "shard"}
	sent, err := protocol.EncodeFrame(want)
	if err != nil {
		t.Fatal(err)
	}
	wire := append([]byte(nil), sent.Bytes()...)
	c.QueueFrame(sent)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	f, err := peer.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.Bytes(), wire) {
		t.Fatalf("read frame %x, sent %x", f.Bytes(), wire)
	}
	msg, _, err := new(protocol.Decoder).Decode(f.Bytes())
	f.Release()
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := msg.(*protocol.Leave); !ok || got.Participant != want.Participant || got.Reason != "shard" {
		t.Fatalf("round trip returned %#v", msg)
	}

	// An unencodable message fails before anything is queued or written.
	huge := &protocol.Leave{Reason: string(make([]byte, protocol.MaxPayload+1))}
	if _, err := protocol.EncodeFrame(huge); !errors.Is(err, protocol.ErrTooLarge) {
		t.Fatalf("oversize message: err = %v, want protocol.ErrTooLarge", err)
	}

	// An oversize length prefix is refused before any frame is acquired.
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	if _, err := c.c.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := peer.ReadFrame(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize prefix: err = %v, want ErrFrameTooLarge", err)
	}

	_ = c.Close()
	late, err := protocol.EncodeFrame(want)
	if err != nil {
		t.Fatal(err)
	}
	c.QueueFrame(late)
	if err := c.Flush(); err == nil {
		t.Fatal("write on a closed conn succeeded")
	}
	if _, err := c.ReadFrame(); err == nil {
		t.Fatal("read on a closed conn succeeded")
	}
	if live := protocol.LiveFrames(); live != live0 {
		t.Fatalf("%d frames leaked by the message paths", live-live0)
	}
}
