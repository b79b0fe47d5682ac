// Command loadgen drives a classroomd server with a swarm of real TCP
// clients: each publishes a scripted pose stream and measures how stale the
// other participants' avatars arrive — the paper's C1 metric measured over a
// real network stack. With -churn, clients also cycle through join/leave
// storms (the E11 workload): each client disconnects after its stay and
// rejoins, and loadgen reports the onboarding latency (connect to first
// replicated snapshot) alongside avatar staleness.
//
// Usage:
//
// With -soak N, loadgen instead runs N compressed churn epochs — every
// client joins, publishes for its stay, and leaves; then a forced GC and a
// post-GC heap sample — and exits non-zero unless the final-quartile heap is
// flat against the epoch-3 baseline. Combined with -serve the room runs
// in-process, so the verdict covers server-side leaks too; against a remote
// -addr it covers only the client side.
//
// With -geo, loadgen instead replays the geo deployment schedule — staggered
// joins across three regions, k-center relay placement, a live roam of both
// far cohorts (session handoff over real sockets), and a relay drain — on an
// in-process TCP fabric, then exits non-zero unless every client replica
// converged byte-for-byte to the cloud world, the expected migrations all
// happened, and no frame is left alive.
//
//	loadgen -addr 127.0.0.1:7480 -clients 50 -duration 30s -rate 20
//	loadgen -serve -clients 20 -duration 10s -churn 2s   # self-hosted churn run
//	loadgen -serve -clients 8 -soak 20 -churn 300ms      # compressed soak gate
//	loadgen -geo                                         # geo handoff verdict over TCP
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"metaclass/internal/mathx"
	"metaclass/internal/metrics"
	"metaclass/internal/protocol"
	"metaclass/internal/trace"
	"metaclass/internal/transport"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7480", "classroomd address")
		clients  = flag.Int("clients", 10, "number of concurrent clients")
		duration = flag.Duration("duration", 30*time.Second, "test duration")
		rate     = flag.Float64("rate", 20, "pose publish rate per client (Hz)")
		churn    = flag.Duration("churn", 0, "client stay duration before leaving and rejoining (0 = no churn)")
		serve    = flag.Bool("serve", false, "host an in-process room on 127.0.0.1:0 and drive it (self-contained smoke)")
		soak     = flag.Int("soak", 0, "run N compressed churn epochs with a post-GC heap sample each; exit non-zero unless flat")
		geoMode  = flag.Bool("geo", false, "replay the geo placement/roam/drain schedule over an in-process TCP fabric; exit non-zero unless converged and leak-free")
	)
	flag.Parse()
	if err := checkFlags(*clients, *rate); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(2)
	}
	if *geoMode {
		if err := runGeo(); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(1)
		}
		return
	}
	target := *addr
	if *serve {
		room, err := transport.ListenRoom(transport.RoomConfig{Addr: "127.0.0.1:0"})
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(1)
		}
		defer func() { _ = room.Close() }()
		target = room.Addr()
		fmt.Printf("loadgen: serving in-process room on %s\n", target)
	}
	if *soak > 0 {
		if err := runSoak(target, *clients, *rate, *churn, *soak); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(target, *clients, *duration, *rate, *churn); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// checkFlags refuses the values that would otherwise surface as a panic in a
// client goroutine (a publish ticker needs a positive interval, and above
// 1 GHz the interval rounds to zero) or as a verdict over no clients.
func checkFlags(clients int, rate float64) error {
	if clients <= 0 {
		return fmt.Errorf("-clients must be positive, got %d", clients)
	}
	if !(rate > 0 && rate <= 1e9) { // also refuses NaN
		return fmt.Errorf("-rate must be in (0, 1e9] Hz, got %v", rate)
	}
	return nil
}

// runSoak is the compressed soak gate over real TCP: `epochs` rounds of the
// full churn cycle — every client joins, publishes for `stay`, leaves — with
// a forced GC and a post-GC HeapAlloc sample after each round. A deployment
// that can run for a week shows a flat post-GC heap line; a per-session leak
// of even a few KB climbs straight through the 10% tolerance.
func runSoak(addr string, clients int, rate float64, stay time.Duration, epochs int) error {
	if stay <= 0 {
		stay = 300 * time.Millisecond
	}
	fmt.Printf("loadgen: soak %d epochs x %d clients (stay %v at %.0f Hz) -> %s\n",
		epochs, clients, stay, rate, addr)
	var (
		age      metrics.SafeHistogram
		onboard  metrics.SafeHistogram
		received atomic.Uint64
		errs     atomic.Uint64
	)
	start := time.Now()
	heaps := make([]uint64, 0, epochs)
	var ms runtime.MemStats
	for e := 0; e < epochs; e++ {
		var wg sync.WaitGroup
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				if err := runClient(addr, protocol.ParticipantID(id+1), rate, start,
					time.Now().Add(stay), &age, &onboard, &received); err != nil {
					errs.Add(1)
				}
			}(i)
		}
		wg.Wait()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		heaps = append(heaps, ms.HeapAlloc)
		fmt.Printf("epoch %2d/%d: post-GC heap %5d KB\n", e+1, epochs, ms.HeapAlloc/1024)
	}
	fmt.Printf("done: sessions=%d updates=%d errors=%d\n",
		uint64(epochs*clients), received.Load(), errs.Load())
	if snap := onboard.Snapshot(); snap.Count() > 0 {
		fmt.Printf("onboarding: p50=%v p95=%v max=%v\n",
			snap.P50().Round(time.Millisecond), snap.P95().Round(time.Millisecond),
			snap.Max().Round(time.Millisecond))
	}
	if len(heaps) < 4 {
		fmt.Println("soak: too few epochs for a flatness verdict (need >= 4)")
		return nil
	}
	base := heaps[2]
	const slack = 512 << 10
	lim := uint64(float64(base)*1.10) + slack
	flat := true
	for _, h := range heaps[len(heaps)-max(1, len(heaps)/4):] {
		if h > lim {
			flat = false
		}
	}
	if !flat {
		return fmt.Errorf("soak NOT FLAT: final-quartile post-GC heap exceeds epoch-3 baseline %d KB +10%%+512KB", base/1024)
	}
	fmt.Printf("soak FLAT: final-quartile post-GC heap within 10%%+512KB of epoch-3 baseline %d KB\n", base/1024)
	return nil
}

func run(addr string, clients int, duration time.Duration, rate float64, churn time.Duration) error {
	fmt.Printf("loadgen: %d clients -> %s for %v at %.0f Hz (churn stay %v)\n",
		clients, addr, duration, rate, churn)
	var (
		age      metrics.SafeHistogram
		onboard  metrics.SafeHistogram
		wg       sync.WaitGroup
		mu       sync.Mutex
		received atomic.Uint64
		sessions atomic.Uint64
		errs     int
	)
	start := time.Now()
	deadline := start.Add(duration)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// Without churn one session spans the whole run; with churn the
			// client leaves after its stay and rejoins until the deadline.
			for sess := 0; ; sess++ {
				if time.Now().After(deadline) {
					return
				}
				stop := deadline
				if churn > 0 {
					if s := time.Now().Add(churn); s.Before(stop) {
						stop = s
					}
				}
				sessions.Add(1)
				err := runClient(addr, protocol.ParticipantID(id+1), rate, start, stop,
					&age, &onboard, &received)
				if err != nil {
					mu.Lock()
					errs++
					mu.Unlock()
					// Back off before rejoining so an unreachable server is
					// retried, not hammered in a busy loop.
					time.Sleep(250 * time.Millisecond)
				}
				if churn <= 0 {
					return
				}
			}
		}(i)
	}
	wg.Wait()
	fmt.Printf("done: sessions=%d updates=%d errors=%d\n", sessions.Load(), received.Load(), errs)
	if snap := age.Snapshot(); snap.Count() > 0 {
		fmt.Printf("avatar age: p50=%v p95=%v p99=%v max=%v (paper threshold: 100ms)\n",
			snap.P50().Round(time.Millisecond), snap.P95().Round(time.Millisecond),
			snap.P99().Round(time.Millisecond), snap.Max().Round(time.Millisecond))
	}
	if snap := onboard.Snapshot(); snap.Count() > 0 {
		fmt.Printf("onboarding: p50=%v p95=%v max=%v (connect -> first snapshot)\n",
			snap.P50().Round(time.Millisecond), snap.P95().Round(time.Millisecond),
			snap.Max().Round(time.Millisecond))
	}
	return nil
}

func runClient(addr string, id protocol.ParticipantID, rate float64,
	start, deadline time.Time, age, onboard *metrics.SafeHistogram, received *atomic.Uint64) error {
	joinedAt := time.Now()
	conn, err := transport.Dial(addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	if err := conn.WriteMessage(&protocol.Hello{
		Participant: id, Role: protocol.RoleLearner, Name: fmt.Sprintf("load-%d", id),
	}); err != nil {
		return err
	}

	script := trace.Seated{
		Anchor: mathx.V3(float64(id%16)*1.2, 0, float64(id/16)*1.2),
		Phase:  rand.New(rand.NewSource(int64(id))).Float64() * 6,
	}

	var wg sync.WaitGroup
	wg.Add(1)
	// Publisher.
	go func() {
		defer wg.Done()
		ticker := time.NewTicker(time.Duration(float64(time.Second) / rate))
		defer ticker.Stop()
		seq := uint32(0)
		for now := range ticker.C {
			if now.After(deadline) {
				_ = conn.WriteMessage(&protocol.Leave{Participant: id})
				_ = conn.Close()
				return
			}
			seq++
			elapsed := now.Sub(start)
			p := script.PoseAt(elapsed)
			_ = conn.WriteMessage(&protocol.PoseUpdate{
				Participant: id, Seq: seq, CapturedAt: elapsed,
				Pose: protocol.QuantizePose(p.Position, p.Rotation),
				VelMMS: [3]int64{
					int64(p.Velocity.X * 1000), int64(p.Velocity.Y * 1000), int64(p.Velocity.Z * 1000),
				},
			})
		}
	}()

	// Receiver: measure onboarding and entity freshness, acking replication.
	synced := false
	for {
		msg, err := conn.ReadMessage()
		if err != nil {
			break
		}
		elapsed := time.Since(start)
		switch m := msg.(type) {
		case *protocol.Snapshot:
			if !synced {
				synced = true
				onboard.Observe(time.Since(joinedAt))
			}
			for _, e := range m.Entities {
				age.Observe(elapsed - e.CapturedAt)
				received.Add(1)
			}
			_ = conn.WriteMessage(&protocol.Ack{Participant: id, Tick: m.Tick})
		case *protocol.Delta:
			if !synced {
				synced = true
				onboard.Observe(time.Since(joinedAt))
			}
			for _, e := range m.Changed {
				age.Observe(elapsed - e.CapturedAt)
				received.Add(1)
			}
			_ = conn.WriteMessage(&protocol.Ack{Participant: id, Tick: m.Tick})
		}
	}
	wg.Wait()
	return nil
}
