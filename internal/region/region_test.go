package region

import (
	"errors"
	"math"
	"testing"
	"time"
)

func TestTopologyBasics(t *testing.T) {
	tp := NewTopology("a", "b", "c", "a") // duplicate ignored
	if len(tp.Regions()) != 3 {
		t.Fatalf("regions = %v", tp.Regions())
	}
	if err := tp.SetLatency("a", "b", 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	d, err := tp.Latency("b", "a") // symmetric
	if err != nil || d != 10*time.Millisecond {
		t.Errorf("latency = %v, %v", d, err)
	}
	if d, _ := tp.Latency("a", "a"); d != 0 {
		t.Errorf("self latency = %v", d)
	}
	if _, err := tp.Latency("a", "zz"); !errors.Is(err, ErrUnknownRegion) {
		t.Errorf("unknown err = %v", err)
	}
	if err := tp.SetLatency("zz", "a", 0); !errors.Is(err, ErrUnknownRegion) {
		t.Errorf("set unknown err = %v", err)
	}
}

func TestGlobalCampusComplete(t *testing.T) {
	tp := GlobalCampus()
	regions := tp.Regions()
	if len(regions) < 6 {
		t.Fatalf("too few regions: %v", regions)
	}
	for _, a := range regions {
		for _, b := range regions {
			d, err := tp.Latency(a, b)
			if err != nil {
				t.Fatal(err)
			}
			if a == b && d != 0 {
				t.Errorf("self latency %s = %v", a, d)
			}
			if a != b && d >= unset {
				t.Errorf("missing latency %s<->%s", a, b)
			}
		}
	}
	// The paper's poorly-peered case: sa-poor to the campuses is 200ms+ one
	// way (hundreds of ms RTT).
	d, _ := tp.Latency("sa-poor", "gz")
	if 2*d < 400*time.Millisecond {
		t.Errorf("sa-poor RTT to gz = %v, want hundreds of ms", 2*d)
	}
}

func TestPlaceRelaysSingleCoversBest(t *testing.T) {
	tp := GlobalCampus()
	clients := map[ID]int{"kr": 100, "jp": 100, "gz": 50}
	relays, err := tp.PlaceRelays(1, clients)
	if err != nil {
		t.Fatal(err)
	}
	if len(relays) != 1 {
		t.Fatalf("relays = %v", relays)
	}
	// The 1-center of {kr, jp, gz} must be an Asian region.
	switch relays[0] {
	case "kr", "jp", "gz", "hk":
	default:
		t.Errorf("relay %s not in Asia for Asian clients", relays[0])
	}
}

func TestPlaceRelaysImprovesWorstCase(t *testing.T) {
	tp := GlobalCampus()
	clientRegions := []ID{"gz", "kr", "us-east", "eu-west", "sa-poor"}
	clients := map[ID]int{}
	for _, r := range clientRegions {
		clients[r] = 10
	}

	// worstFor is the largest one-way latency from a client region to its
	// nearest placed relay.
	worstFor := func(k int) time.Duration {
		relays, err := tp.PlaceRelays(k, clients)
		if err != nil {
			t.Fatal(err)
		}
		var worst time.Duration
		for _, c := range clientRegions {
			nearest := time.Duration(math.MaxInt64)
			for _, r := range relays {
				d, err := tp.Latency(c, r)
				if err != nil {
					t.Fatal(err)
				}
				nearest = min(nearest, d)
			}
			worst = max(worst, nearest)
		}
		return worst
	}

	w1, w3 := worstFor(1), worstFor(3)
	if w3 >= w1 {
		t.Errorf("k=3 worst (%v) not better than k=1 (%v)", w3, w1)
	}
	// With enough relays every client gets a local one.
	w8 := worstFor(8)
	if w8 != 0 {
		t.Errorf("k=8 worst = %v, want 0 (relay in every client region)", w8)
	}
}

func TestPlaceRelaysEdgeCases(t *testing.T) {
	tp := GlobalCampus()
	// No clients: still returns one relay.
	relays, err := tp.PlaceRelays(3, nil)
	if err != nil || len(relays) != 1 {
		t.Errorf("no-client relays = %v, %v", relays, err)
	}
	// k < 1 coerced to 1.
	relays, err = tp.PlaceRelays(0, map[ID]int{"kr": 1})
	if err != nil || len(relays) != 1 {
		t.Errorf("k=0 relays = %v, %v", relays, err)
	}
	// Unknown client region errors.
	if _, err := tp.PlaceRelays(1, map[ID]int{"atlantis": 5}); !errors.Is(err, ErrUnknownRegion) {
		t.Errorf("unknown client err = %v", err)
	}
	// Empty topology errors.
	if _, err := NewTopology().PlaceRelays(1, nil); !errors.Is(err, ErrNoRegions) {
		t.Errorf("empty topology err = %v", err)
	}
	// Zero client count is ignored.
	relays, err = tp.PlaceRelays(2, map[ID]int{"kr": 0})
	if err != nil || len(relays) != 1 {
		t.Errorf("zero-count relays = %v, %v", relays, err)
	}
}
