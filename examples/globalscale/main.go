// Globalscale: the paper's "thousands of remote users scattered worldwide"
// scenario, driven end to end through the geo deployment layer — a global
// classroom first served from a single Hong Kong cloud, then geo-sharded
// live: greedy k-center placement stands relays up, every far cohort roams
// onto its placed relay mid-run (live session handoff), and one relay later
// drains back to the cloud. The program prints each region's worst p95
// avatar staleness before and after the roam, which is the paper's C2
// remedy measured end to end.
package main

import (
	"fmt"
	"log"
	"time"

	"metaclass/internal/geo"
	"metaclass/internal/metrics"
	"metaclass/internal/netsim"
	"metaclass/internal/protocol"
	"metaclass/internal/region"
	"metaclass/internal/rig"
	"metaclass/internal/vclock"
)

const usersPerRegion = 6

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	topo := region.GlobalCampus()
	clientRegions := []region.ID{"kr", "jp", "us-east", "eu-west", "sa-poor"}

	sim := vclock.New(3)
	d, err := geo.New(sim, &rig.NetsimFabric{Net: netsim.New(sim)}, geo.Config{
		Topology:    topo,
		CloudRegion: "hk",
	})
	if err != nil {
		return err
	}

	// Everyone joins the single cloud first: no relays are deployed yet, so
	// bestServer routes every session to Hong Kong over its access link.
	id := protocol.ParticipantID(1)
	byRegion := map[region.ID][]protocol.ParticipantID{}
	for _, r := range clientRegions {
		for i := 0; i < usersPerRegion; i++ {
			if _, err := d.Join(id, r); err != nil {
				return err
			}
			byRegion[r] = append(byRegion[r], id)
			id++
		}
	}
	if err := d.Start(); err != nil {
		return err
	}
	fmt.Printf("joined %d remote learners across %d regions, all served by the hk cloud\n\n",
		int(id)-1, len(clientRegions))

	run := func(dt time.Duration) error { return sim.Run(sim.Now() + dt) }

	// worstP95 measures each region's worst p95 pose age over a 3 s window
	// (histogram deltas against cuts taken here).
	worstP95 := func() (map[region.ID]time.Duration, error) {
		cuts := map[protocol.ParticipantID]metrics.Histogram{}
		for _, r := range clientRegions {
			for _, cid := range byRegion[r] {
				s, _ := d.Session(cid)
				cuts[cid] = *s.VR.Metrics().Histogram("pose.age")
			}
		}
		if err := run(3 * time.Second); err != nil {
			return nil, err
		}
		out := map[region.ID]time.Duration{}
		for _, r := range clientRegions {
			for _, cid := range byRegion[r] {
				s, _ := d.Session(cid)
				cut := cuts[cid]
				w := s.VR.Metrics().Histogram("pose.age").Delta(&cut)
				if p := w.P95(); p > out[r] {
					out[r] = p
				}
			}
		}
		return out, nil
	}

	if err := run(2 * time.Second); err != nil { // warm up
		return err
	}
	before, err := worstP95()
	if err != nil {
		return err
	}

	// Geo-shard live: place relays by greedy k-center over the census, then
	// roam every session whose placed relay beats the cloud by more than the
	// hysteresis — each move is a live handoff (baseline transfer, link cut,
	// adoption) with zero lost or duplicated updates.
	placed, err := d.Deploy(3)
	if err != nil {
		return err
	}
	fmt.Printf("relay placement (greedy k-center, k=3): %v\n", placed)
	moved, err := d.Roam()
	if err != nil {
		return err
	}
	for _, r := range clientRegions {
		s, _ := d.Session(byRegion[r][0])
		serverRegion, label := region.ID("hk"), "hk cloud"
		if served := s.ServedBy(); served != "" {
			serverRegion, label = served, "relay "+string(served)
		}
		lat, _ := topo.Latency(r, serverRegion)
		fmt.Printf("  %-8s -> %-14s (%v one-way access)\n", r, label, lat)
	}
	fmt.Printf("roamed %d sessions onto their placed relays (live handoffs)\n\n", moved)

	if err := run(2 * time.Second); err != nil { // settle across the cut
		return err
	}
	after, err := worstP95()
	if err != nil {
		return err
	}

	// Administrative drain: retire the us-east relay — its sessions migrate
	// to their next-best server live, then the endpoint is reclaimed.
	if _, ok := d.Relay("us-east"); ok {
		if err := d.Drain("us-east"); err != nil {
			return err
		}
		fmt.Println("drained the us-east relay: its sessions migrated to their next-best server")
		if err := run(time.Second); err != nil {
			return err
		}
	}

	fmt.Println("\nworst p95 avatar staleness by region (single cloud -> geo-sharded):")
	for _, r := range clientRegions {
		b, a := before[r], after[r]
		improve := "-"
		if b > 0 && a < b {
			improve = fmt.Sprintf("-%.0f%%", 100*(1-float64(a)/float64(b)))
		}
		fmt.Printf("  %-8s %7v -> %-7v %s  (%d clients)\n",
			r, b.Round(time.Millisecond), a.Round(time.Millisecond), improve, len(byRegion[r]))
	}
	fmt.Printf("\nmigrations: %d (roams %d, drains %d)\n",
		d.Metrics().Counter("geo.migrations").Value(),
		d.Metrics().Counter("geo.roams").Value(),
		d.Metrics().Counter("geo.drains").Value())
	return nil
}
