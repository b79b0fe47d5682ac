// Command loadgen drives a classroomd server with a swarm of real TCP
// clients. Each session is the product's client, a client.VR on a transport
// endpoint of its own that dials without the name handshake and joins with a
// Hello. loadgen reports how stale the other participants' avatars arrive —
// the paper's C1 metric over a real network stack — from each replica's
// pose.age (one sample per fresh entity update, stamped up to 1 ms late: a
// session's clock advances once per pump), and "updates" counts applied
// replication messages. With -churn, clients also cycle through join/leave
// storms (the E11 workload), and loadgen reports the onboarding latency (join
// to first applied update) alongside avatar staleness. A run fails (exit 1)
// when every session failed or no replication update arrived at all.
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
	"time"

	"metaclass/internal/client"
	"metaclass/internal/cloud"
	"metaclass/internal/endpoint"
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
	err := func() error {
		if *geoMode {
			return runGeo()
		}
		target := *addr
		if *serve {
			var err error
			if target, err = serveCloud(); err != nil {
				return err
			}
			fmt.Printf("loadgen: serving an in-process cloud server on %s\n", target)
		}
		if *soak > 0 {
			return runSoak(target, *clients, *rate, *churn, *soak)
		}
		return run(target, *clients, *duration, *rate, *churn)
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// checkFlags refuses the values that would otherwise fail every session (a
// publish rate needs a positive period, and above 1 GHz the period rounds to
// zero), as a verdict over no clients or no -duration (which -soak and -geo
// ignore), or as a negative -churn or -soak read as 0.
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

// tally is what every client session of a run adds to, under mu.
type tally struct {
	mu                      sync.Mutex
	age, onboard            metrics.Histogram
	sessions, updates, errs uint64
}

// report prints the run's totals and returns its verdict.
func (t *tally) report() error {
	fmt.Printf("done: sessions=%d updates=%d errors=%d\n", t.sessions, t.updates, t.errs)
	if t.age.Count() > 0 {
		fmt.Printf("avatar age: p50=%v p95=%v p99=%v max=%v (paper threshold: 100ms)\n",
			t.age.P50().Round(time.Millisecond), t.age.P95().Round(time.Millisecond),
			t.age.P99().Round(time.Millisecond), t.age.Max().Round(time.Millisecond))
	}
	if t.onboard.Count() > 0 {
		fmt.Printf("onboarding: p50=%v p95=%v max=%v (connect -> first snapshot)\n",
			t.onboard.P50().Round(time.Millisecond), t.onboard.P95().Round(time.Millisecond),
			t.onboard.Max().Round(time.Millisecond))
	}
	return verdict(t.sessions, t.updates, t.errs)
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
		t.swarm(addr, clients, rate, 0, start, time.Now().Add(stay))
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
	var t tally
	start := time.Now()
	t.swarm(addr, clients, rate, churn, start, start.Add(duration))
	return t.report()
}

// swarm runs clients concurrent clients until deadline. Without churn each
// runs one session; with churn a client leaves after its stay and rejoins
// until the deadline.
func (t *tally) swarm(addr string, clients int, rate float64, churn time.Duration, start, deadline time.Time) {
	var wg sync.WaitGroup
	for id := protocol.ParticipantID(1); id <= protocol.ParticipantID(clients); id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				stop := deadline
				if s := time.Now().Add(churn); churn > 0 && s.Before(stop) {
					stop = s
				}
				err := t.session(addr, id, rate, start, stop)
				if churn <= 0 {
					return
				}
				if err != nil {
					// Back off before rejoining so an unreachable server is
					// retried, not hammered in a busy loop.
					time.Sleep(250 * time.Millisecond)
				}
			}
		}()
	}
	wg.Wait()
}

// session runs one client session until deadline and folds it into t. Every
// session's clock reads time since start, so a receiver's now minus the
// sender's CapturedAt is an age. A session the server closes before the
// client's Leave is over at once, and counts as an error.
func (t *tally) session(addr string, id protocol.ParticipantID, rate float64, start, deadline time.Time) (err error) {
	joined := time.Since(start)
	var v *client.VR
	defer func() { t.fold(v, joined, err) }()
	name := fmt.Sprintf("load-%d", id)
	ep, err := transport.ListenEndpoint(endpoint.Addr(name), "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ep.Close()
	sim, server := vclock.New(0), endpoint.Addr(addr)
	_ = sim.Run(joined) // the VR's tickers start from the session's join
	v, err = client.NewVR(sim, ep, client.VRConfig{
		Participant: id, Server: server, PublishHz: rate,
		Script: trace.Seated{
			Anchor: mathx.V3(float64(id%16)*1.2, 0, float64(id/16)*1.2),
			Phase:  rand.New(rand.NewSource(int64(id))).Float64() * 6,
		},
	})
	if err != nil {
		return err
	}
	gone := false
	ep.OnPeerGone(func(endpoint.Addr) { gone = true })
	if err = ep.DialAnonymous(server, addr); err != nil {
		return err
	}
	if err = send(ep, server, &protocol.Hello{Participant: id, Role: protocol.RoleLearner, Name: name}); err != nil {
		return err
	}
	if err = v.Start(); err != nil {
		return err
	}
	for !gone && time.Now().Before(deadline) {
		_ = sim.Run(time.Since(start))
		ep.PumpWait(time.Millisecond)
	}
	v.Stop()
	if gone {
		return errors.New("loadgen: the server closed the session")
	}
	if err = send(ep, server, &protocol.Leave{Participant: id}); err != nil {
		return err
	}
	// The server answers a Leave by closing the connection. Waiting for that
	// (up to a second) ends the session with its server side released, so a
	// soak's post-GC heap reads what is left, not teardown still in flight.
	for wait := time.Now().Add(time.Second); !gone && time.Now().Before(wait); {
		ep.PumpWait(time.Millisecond)
	}
	return nil
}

// send encodes msg and sends it to the server outside the VR's dispatcher.
func send(ep *transport.Endpoint, to endpoint.Addr, msg protocol.Message) error {
	f, err := protocol.EncodeFrame(msg)
	if err != nil {
		return err
	}
	return ep.SendFrame(to, f)
}

// fold adds a finished session to the tally: its avatar ages, its onboarding
// (join to first applied update), its applied updates, and its error. v is
// nil when the session failed before its client existed.
func (t *tally) fold(v *client.VR, joined time.Duration, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sessions++
	if err != nil {
		t.errs++
	}
	if v == nil {
		return
	}
	t.age.Merge(v.Metrics().Histogram("pose.age"))
	t.updates += v.Metrics().Counter("recv.updates").Value()
	if at, ok := v.FirstSyncAt(); ok {
		t.onboard.Observe(at - joined)
	}
}
