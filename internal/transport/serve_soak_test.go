package transport_test

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"metaclass/internal/metrics"
	"metaclass/internal/protocol"
	"metaclass/internal/transport"
)

// soakSession is one loadgen-style client lifecycle: dial, hello, publish a
// short pose burst while acking replication, leave, and wait for the server
// to close the session.
func soakSession(t *testing.T, addr string, id protocol.ParticipantID, epoch int) {
	t.Helper()
	c := hello(t, addr, id)
	defer c.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			msg, err := transport.RecvMsg(c)
			if err != nil {
				return // server closed the session after Leave
			}
			switch m := msg.(type) {
			case *protocol.Snapshot:
				_ = transport.SendMsg(c, &protocol.Ack{Participant: id, Tick: m.Tick})
			case *protocol.Delta:
				_ = transport.SendMsg(c, &protocol.Ack{Participant: id, Tick: m.Tick})
			}
		}
	}()
	for seq := uint32(1); seq <= 6; seq++ {
		if err := transport.SendMsg(c, posePayload(id, uint32(epoch)*100+seq, float64(seq)*0.01)); err != nil {
			return // session torn down under us; the stats wait will catch real losses
		}
		time.Sleep(3 * time.Millisecond)
	}
	_ = transport.SendMsg(c, &protocol.Leave{Participant: id})
	wg.Wait()
}

// TestRoomSoakFlatness is the long-soak gate over the TCP backend: the
// served cloud server endures compressed churn epochs — 8 loadgen-style clients
// joining, publishing, and leaving per epoch, participant IDs reused across
// epochs exactly as cmd/loadgen's churn mode reuses them — with a forced GC
// and post-GC HeapAlloc sample between epochs. The final-quartile heap must
// stay within 10% (plus a small absolute slack for goroutine/socket noise)
// of the epoch-3 baseline, every session must be torn down, and closing the
// server must leave zero live frames.
func TestRoomSoakFlatness(t *testing.T) {
	live0 := protocol.LiveFrames()
	r, err := listenRoom()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	epochs := 20
	if testing.Short() {
		epochs = 6
	}
	const clients = 8
	heaps := make([]uint64, 0, epochs)
	var ms runtime.MemStats
	for e := 0; e < epochs; e++ {
		var wg sync.WaitGroup
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func(id protocol.ParticipantID) {
				defer wg.Done()
				soakSession(t, r.Addr(), id, e)
			}(protocol.ParticipantID(i + 1))
		}
		wg.Wait()
		// Drain: every session of this epoch torn down, no entities left.
		want := uint64((e + 1) * clients)
		st := waitStats(r, 5*time.Second, func(st stats) bool {
			return st.Left == want && st.Entities == 0
		})
		if st.Left != want || st.Entities != 0 {
			t.Fatalf("epoch %d did not drain: %+v (want Left %d, Entities 0)", e+1, st, want)
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		heaps = append(heaps, ms.HeapAlloc)
	}

	if base, flat := metrics.FlatHeap(heaps, 0.10, 512<<10); !flat {
		kb := make([]uint64, len(heaps))
		for i, h := range heaps {
			kb[i] = h / 1024
		}
		t.Fatalf("final-quartile heap exceeds baseline %d KB +10%%+slack; heaps (KB): %v", base/1024, kb)
	}

	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if live := protocol.LiveFrames(); live != live0 {
		t.Fatalf("%d frames still live after the soak", live-live0)
	}
}
