// Command classroomd hosts the cloud VR classroom server of Fig. 3
// (cloud.Server) over real TCP. Learners join with a Hello, publish pose
// streams, are seated in the virtual classroom, and receive
// interest-managed replication of everyone else.
//
// Usage:
//
//	classroomd -addr :7480 -tick 30
//
// Pair with cmd/loadgen to drive it.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"syscall"
	"time"

	"metaclass/internal/cloud"
	"metaclass/internal/interest"
	"metaclass/internal/transport"
	"metaclass/internal/vclock"
)

func main() {
	var (
		addr = flag.String("addr", ":7480", "TCP listen address")
		tick = flag.Float64("tick", 30, "replication tick rate (Hz)")
		stat = flag.Duration("stats", 5*time.Second, "stats print interval")
	)
	flag.Parse()
	if err := checkFlags(*tick, *stat); err != nil {
		fmt.Fprintln(os.Stderr, "classroomd:", err)
		os.Exit(2)
	}
	if err := run(*addr, *tick, *stat); err != nil {
		fmt.Fprintln(os.Stderr, "classroomd:", err)
		os.Exit(1)
	}
}

// checkFlags refuses a tick rate the server cannot run or advertise (the
// HelloAck carries it as a uint16; NaN fails the range test too) and a stats
// interval the stats ticker would panic on.
func checkFlags(tickHz float64, statsEvery time.Duration) error {
	if !(tickHz >= 1 && tickHz <= math.MaxUint16) {
		return fmt.Errorf("-tick must be in [1, %d] Hz, got %v", math.MaxUint16, tickHz)
	}
	if statsEvery <= 0 {
		return fmt.Errorf("-stats must be positive, got %v", statsEvery)
	}
	return nil
}

func run(addr string, tickHz float64, statsEvery time.Duration) error {
	ep, err := transport.ListenAnonymous("classroomd", addr)
	if err != nil {
		return err
	}
	defer func() { _ = ep.Close() }()
	sim := vclock.New(0)
	srv, err := cloud.New(sim, ep, cloud.Config{TickHz: tickHz, Interest: interest.NewPolicy()})
	if err != nil {
		return err
	}
	ep.OnPeerGone(srv.EndSession)
	if err := srv.Start(); err != nil {
		return err
	}
	defer srv.Stop()
	// A ticker on the node's clock reads the registry on the serving goroutine.
	reg := srv.Metrics()
	sim.Ticker(statsEvery, func() {
		fmt.Printf("participants=%d joined=%d left=%d poses=%d spoofed=%d\n", srv.World().Len(),
			reg.Counter("sessions.joined").Value(), reg.Counter("sessions.left").Value(),
			reg.Counter("client.poses").Value(), reg.Counter("recv.spoofed").Value())
	})
	fmt.Printf("classroomd: serving on %s at %.0f Hz\n", ep.TCPAddr(), tickHz)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ep.Serve(sim, time.Duration(float64(time.Second)/tickHz), ctx.Done())
	fmt.Println("\nclassroomd: shutting down")
	return ep.Close()
}
