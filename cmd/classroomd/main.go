// Command classroomd hosts a real-TCP Metaverse classroom sync room (the
// cloud VR server of Fig. 3 as a single process). Clients join with a Hello,
// publish PoseUpdate streams, and receive interest-free snapshot/delta
// replication of every other participant.
//
// Usage:
//
//	classroomd -addr :7480 -tick 30
//
// Pair with cmd/loadgen to drive it.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"syscall"
	"time"

	"metaclass/internal/transport"
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

// checkFlags refuses a tick rate the room cannot run or advertise (the
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
	room, err := transport.ListenRoom(transport.RoomConfig{Addr: addr, TickHz: tickHz})
	if err != nil {
		return err
	}
	defer func() { _ = room.Close() }()
	fmt.Printf("classroomd: serving on %s at %.0f Hz\n", room.Addr(), tickHz)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	ticker := time.NewTicker(statsEvery)
	defer ticker.Stop()
	for {
		select {
		case <-sig:
			fmt.Println("\nclassroomd: shutting down")
			return room.Close()
		case <-ticker.C:
			st := room.Stats()
			fmt.Printf("participants=%d joined=%d left=%d poses=%d\n",
				st.Entities, st.Joined, st.Left, st.Poses)
		}
	}
}
