// Command loadgen drives a classroomd server with a swarm of real TCP
// clients: each publishes a scripted pose stream and measures how stale the
// other participants' avatars arrive — the paper's C1 metric measured over a
// real network stack. With -churn, clients also cycle through join/leave
// storms (the E11 workload): each client disconnects after its stay and
// rejoins, and loadgen reports the onboarding latency (connect to first
// replicated snapshot) alongside avatar staleness. A run fails (exit 1) when
// every session failed or no replication update arrived at all.
//
// Usage:
//
// With -soak N, loadgen instead runs N compressed churn epochs — every
// client joins, publishes for its stay, and leaves; then a forced GC and a
// post-GC heap sample — and exits non-zero unless the final-quartile heap is
// flat against the epoch-3 baseline. Combined with -serve (cmd/classroomd's
// cloud server, built the same way, in-process) the verdict covers
// server-side leaks too; against a remote -addr only the client side.
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
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"metaclass/internal/cloud"
	"metaclass/internal/interest"
	"metaclass/internal/mathx"
	"metaclass/internal/metrics"
	"metaclass/internal/protocol"
	"metaclass/internal/trace"
	"metaclass/internal/transport"
	"metaclass/internal/vclock"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7480", "classroomd address")
		clients  = flag.Int("clients", 10, "number of concurrent clients")
		duration = flag.Duration("duration", 30*time.Second, "test duration")
		rate     = flag.Float64("rate", 20, "pose publish rate per client (Hz)")
		churn    = flag.Duration("churn", 0, "client stay duration before leaving and rejoining (0 = no churn)")
		serve    = flag.Bool("serve", false, "host an in-process cloud server on 127.0.0.1:0 and drive it (self-contained smoke)")
		soak     = flag.Int("soak", 0, "run N compressed churn epochs with a post-GC heap sample each; exit non-zero unless flat")
		geoMode  = flag.Bool("geo", false, "replay the geo placement/roam/drain schedule over an in-process TCP fabric; exit non-zero unless converged and leak-free")
	)
	flag.Parse()
	if err := checkFlags(*clients, *rate, *duration, *churn, *soak, *geoMode); err != nil {
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
		var err error
		if target, err = serveCloud(); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(1)
		}
		fmt.Printf("loadgen: serving an in-process cloud server on %s\n", target)
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
// client goroutine (a ticker needs a positive interval, and above 1 GHz the
// interval rounds to zero), as a verdict over no clients or no -duration
// (which -soak and -geo ignore), or as a negative -churn or -soak read as 0.
func checkFlags(clients int, rate float64, duration, churn time.Duration, soak int, geo bool) error {
	if clients <= 0 {
		return fmt.Errorf("-clients must be positive, got %d", clients)
	}
	if !(rate > 0 && rate <= 1e9) { // also refuses NaN
		return fmt.Errorf("-rate must be in (0, 1e9] Hz, got %v", rate)
	}
	if churn < 0 || soak < 0 {
		return fmt.Errorf("-churn and -soak must not be negative, got %v and %d", churn, soak)
	}
	if duration <= 0 && soak == 0 && !geo {
		return fmt.Errorf("-duration must be positive, got %v", duration)
	}
	return nil
}

// serveCloud hosts a cloud server on 127.0.0.1:0, built as cmd/classroomd
// builds it and served on its own goroutine until the process exits.
func serveCloud() (string, error) {
	const tickHz = 30
	ep, err := transport.ListenAnonymous("loadgen", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	sim := vclock.New(0)
	srv, err := cloud.New(sim, ep, cloud.Config{TickHz: tickHz, Interest: interest.NewPolicy()})
	if err != nil {
		return "", err
	}
	ep.OnPeerGone(srv.EndSession)
	if err := srv.Start(); err != nil {
		return "", err
	}
	go ep.Serve(sim, time.Second/tickHz, nil)
	return ep.TCPAddr(), nil
}

// tally is what every client session of a run adds to.
type tally struct {
	age, onboard            metrics.SafeHistogram
	sessions, updates, errs atomic.Uint64
}

// report prints the run's totals and returns its verdict.
func (t *tally) report() error {
	fmt.Printf("done: sessions=%d updates=%d errors=%d\n", t.sessions.Load(), t.updates.Load(), t.errs.Load())
	if snap := t.age.Snapshot(); snap.Count() > 0 {
		fmt.Printf("avatar age: p50=%v p95=%v p99=%v max=%v (paper threshold: 100ms)\n",
			snap.P50().Round(time.Millisecond), snap.P95().Round(time.Millisecond),
			snap.P99().Round(time.Millisecond), snap.Max().Round(time.Millisecond))
	}
	if snap := t.onboard.Snapshot(); snap.Count() > 0 {
		fmt.Printf("onboarding: p50=%v p95=%v max=%v (connect -> first snapshot)\n",
			snap.P50().Round(time.Millisecond), snap.P95().Round(time.Millisecond),
			snap.Max().Round(time.Millisecond))
	}
	return verdict(t.sessions.Load(), t.updates.Load(), t.errs.Load())
}

// verdict fails a run in which no session got through or the server
// replicated nothing: either way there was nothing to measure.
func verdict(sessions, updates, errs uint64) error {
	if errs >= sessions {
		return fmt.Errorf("every session failed (%d of %d)", errs, sessions)
	}
	if updates == 0 {
		return fmt.Errorf("no replication update arrived")
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
	var t tally
	start := time.Now()
	heaps := make([]uint64, 0, epochs)
	var ms runtime.MemStats
	for e := 0; e < epochs; e++ {
		var wg sync.WaitGroup
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				_ = t.session(addr, protocol.ParticipantID(id+1), rate, start, time.Now().Add(stay))
			}(i)
		}
		wg.Wait()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		heaps = append(heaps, ms.HeapAlloc)
		fmt.Printf("epoch %2d/%d: post-GC heap %5d KB\n", e+1, epochs, ms.HeapAlloc/1024)
	}
	if err := t.report(); err != nil {
		return err
	}
	if len(heaps) < 4 {
		fmt.Println("soak: too few epochs for a flatness verdict (need >= 4)")
		return nil
	}
	base, flat := metrics.FlatHeap(heaps, 0.10, 512<<10)
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
		t  tally
		wg sync.WaitGroup
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
				if err := t.session(addr, protocol.ParticipantID(id+1), rate, start, stop); err != nil {
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
	return t.report()
}

// session runs one client session until deadline, counting it and what it
// receives in t. A session the server closes before the client's Leave is
// over at once: the publisher stops, and the session counts as an error.
func (t *tally) session(addr string, id protocol.ParticipantID, rate float64, start, deadline time.Time) error {
	t.sessions.Add(1)
	joinedAt := time.Now()
	conn, err := transport.Dial(addr)
	if err == nil {
		defer conn.Close()
		err = conn.WriteMessage(&protocol.Hello{
			Participant: id, Role: protocol.RoleLearner, Name: fmt.Sprintf("load-%d", id),
		})
	}
	if err != nil {
		t.errs.Add(1)
		return err
	}

	script := trace.Seated{
		Anchor: mathx.V3(float64(id%16)*1.2, 0, float64(id/16)*1.2),
		Phase:  rand.New(rand.NewSource(int64(id))).Float64() * 6,
	}

	// left closes once the publisher has sent its Leave; received once the
	// receive loop has ended.
	left, received := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	// Publisher.
	go func() {
		defer wg.Done()
		ticker := time.NewTicker(time.Duration(float64(time.Second) / rate))
		defer ticker.Stop()
		seq := uint32(0)
		for {
			var now time.Time
			select {
			case <-received:
				return
			case now = <-ticker.C:
			}
			if now.After(deadline) {
				_ = conn.WriteMessage(&protocol.Leave{Participant: id})
				close(left)
				_ = conn.Close()
				return
			}
			seq++
			elapsed := now.Sub(start)
			m := protocol.PoseUpdate{Participant: id, Seq: seq, CapturedAt: elapsed}
			m.Pose, m.VelMMS = protocol.Sample(script.PoseAt(elapsed))
			_ = conn.WriteMessage(&m)
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
		var ents []protocol.EntityState
		var tick uint64
		switch m := msg.(type) {
		case *protocol.Snapshot:
			ents, tick = m.Entities, m.Tick
		case *protocol.Delta:
			ents, tick = m.Changed, m.Tick
		default:
			continue
		}
		if !synced {
			synced = true
			t.onboard.Observe(time.Since(joinedAt))
		}
		for _, e := range ents {
			t.age.Observe(elapsed - e.CapturedAt)
		}
		t.updates.Add(uint64(len(ents)))
		_ = conn.WriteMessage(&protocol.Ack{Participant: id, Tick: tick})
	}
	close(received)
	wg.Wait()
	select {
	case <-left:
		return nil
	default:
		t.errs.Add(1)
		return errors.New("loadgen: the server closed the session")
	}
}
