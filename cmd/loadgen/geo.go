package main

import (
	"fmt"
	"time"

	"metaclass/internal/geo"
	"metaclass/internal/protocol"
	"metaclass/internal/region"
	"metaclass/internal/rig"
	"metaclass/internal/vclock"
)

// runGeo replays the geo deployment schedule — staggered joins across three
// regions, greedy k-center placement, a live roam of both far cohorts, and a
// relay drain — over an in-process TCP fabric: every access and backbone
// path is a real loopback socket, every handoff cuts and re-dials real
// connections. The verdict is the same one the E14 golden gates on netsim:
// after quiescing, every client replica must agree byte-for-byte with the
// cloud world (no update lost or duplicated across the handoffs), every
// scheduled migration must have happened, and no frame may be left alive.
func runGeo() error {
	live0 := protocol.LiveFrames()
	fab := rig.NewTCPFabric()
	defer fab.Close()
	sim := vclock.New(3)
	d, err := geo.New(sim, fab, geo.Config{
		Topology:    region.GlobalCampus(),
		CloudRegion: "hk",
		PublishHz:   30,
	})
	if err != nil {
		return err
	}

	// settle pumps the fabric until the round's traffic — including
	// multi-hop forwards and acks — has fully landed. Without a netsim
	// reference pass to compare counts against, quiet means the pump came
	// back empty several polls in a row (loopback delivery is fast; the
	// sleeps cover reader-goroutine scheduling).
	settle := func() {
		for zeros := 0; zeros < 10; {
			if fab.Pump() == 0 {
				zeros++
				time.Sleep(time.Millisecond)
			} else {
				zeros = 0
			}
		}
	}

	const (
		tick   = time.Second / 30
		rounds = 30
	)
	regions := []region.ID{"kr", "us-east", "sa-poor"}
	if err := d.Start(); err != nil {
		return err
	}
	fmt.Printf("loadgen: geo schedule over TCP loopback — 9 joins, deploy k=2, roam, drain us-east (%d rounds at 30 Hz)\n", rounds)
	for round := 1; round <= rounds; round++ {
		switch {
		case round <= 9:
			id := protocol.ParticipantID(round)
			if _, err := d.Join(id, regions[(round-1)/3]); err != nil {
				return err
			}
		case round == 11:
			placed, err := d.Deploy(2)
			if err != nil {
				return err
			}
			fmt.Printf("round %d: deployed relays %v\n", round, placed)
		case round == 13:
			moved, err := d.Roam()
			if err != nil {
				return err
			}
			if moved != 6 {
				return fmt.Errorf("geo roam moved %d sessions, want 6 (both far cohorts)", moved)
			}
			fmt.Printf("round %d: roamed %d sessions onto their placed relays (live handoffs)\n", round, moved)
		case round == 16:
			if err := d.Drain("us-east"); err != nil {
				return err
			}
			fmt.Printf("round %d: drained the us-east relay\n", round)
		}
		if err := sim.Run(sim.Now() + tick); err != nil {
			return err
		}
		settle()
	}

	// Quiesce: publishers stop, servers keep ticking to flush owed debt and
	// retransmissions, and the loop runs until the convergence audit passes
	// (or times out and reports the failure).
	for _, id := range d.SessionIDs() {
		s, _ := d.Session(id)
		s.VR.Stop()
	}
	deadline := time.Now().Add(30 * time.Second)
	var divergence error
	for {
		if err := sim.Run(sim.Now() + tick); err != nil {
			return err
		}
		settle()
		if divergence = d.Converged(); divergence == nil || time.Now().After(deadline) {
			break
		}
	}

	migrations := d.Metrics().Counter("geo.migrations").Value()
	roams := d.Metrics().Counter("geo.roams").Value()
	drains := d.Metrics().Counter("geo.drains").Value()
	d.Stop()
	settle()
	fab.Close()
	leaked := protocol.LiveFrames() - live0

	fmt.Printf("geo: converged=%v migrations=%d (roams %d, drains %d) leaked=%d\n",
		divergence == nil, migrations, roams, drains, leaked)
	if divergence != nil {
		return fmt.Errorf("geo NOT CONVERGED after the handoffs: %w", divergence)
	}
	if migrations != 9 {
		return fmt.Errorf("geo performed %d migrations, want 9 (6 roams + 3 drain evictions)", migrations)
	}
	if leaked != 0 {
		return fmt.Errorf("geo leaked %d frames across the run", leaked)
	}
	fmt.Println("geo OK: every replica byte-equal to the cloud world, all 9 handoffs done, zero frames leaked")
	return nil
}
