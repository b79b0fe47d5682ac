// Package region models the global geography of remote learners and the
// regional-relay placement the paper prescribes for them: "Most gaming
// platforms solve this issue by setting up regional servers" (challenge C2).
//
// A Topology is a set of named regions with a pairwise one-way latency
// matrix, including poor-peering penalties for badly interconnected pairs.
// PlaceRelays runs greedy k-center over that matrix to choose relay regions,
// and Replan diffs a new placement against the relays deployed.
package region

import (
	"errors"
	"fmt"
	"sort"
	"time"
)

// ID names a region.
type ID string

// Topology is the region graph. Build with NewTopology, then SetLatency.
type Topology struct {
	regions []ID
	index   map[ID]int
	lat     [][]time.Duration
}

// Topology errors.
var (
	ErrUnknownRegion = errors.New("region: unknown region")
	ErrNoRegions     = errors.New("region: topology has no regions")
)

// NewTopology creates a topology over the given regions with all pairwise
// latencies initialized to zero (self) or unset (treated as very far).
func NewTopology(regions ...ID) *Topology {
	t := &Topology{index: make(map[ID]int, len(regions))}
	for _, r := range regions {
		if _, ok := t.index[r]; ok {
			continue
		}
		t.index[r] = len(t.regions)
		t.regions = append(t.regions, r)
	}
	n := len(t.regions)
	t.lat = make([][]time.Duration, n)
	for i := range t.lat {
		t.lat[i] = make([]time.Duration, n)
		for j := range t.lat[i] {
			if i != j {
				t.lat[i][j] = unset
			}
		}
	}
	return t
}

const unset = time.Hour // sentinel for "no measurement": effectively infinite

// Regions returns all region IDs in insertion order.
func (t *Topology) Regions() []ID {
	out := make([]ID, len(t.regions))
	copy(out, t.regions)
	return out
}

// SetLatency records the symmetric one-way latency between a and b.
func (t *Topology) SetLatency(a, b ID, oneWay time.Duration) error {
	i, ok := t.index[a]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownRegion, a)
	}
	j, ok := t.index[b]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownRegion, b)
	}
	t.lat[i][j] = oneWay
	t.lat[j][i] = oneWay
	return nil
}

// Latency returns the one-way latency between a and b.
func (t *Topology) Latency(a, b ID) (time.Duration, error) {
	i, ok := t.index[a]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownRegion, a)
	}
	j, ok := t.index[b]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownRegion, b)
	}
	return t.lat[i][j], nil
}

// PlaceRelays chooses up to k relay regions minimizing the maximum client-
// to-relay latency (greedy 2-approximation of k-center), weighted toward
// regions with clients. clientCount maps region -> number of clients; only
// regions with clients count toward coverage, but any region may host a
// relay. The first relay is the region minimizing worst-case coverage (a
// 1-center exact pick); subsequent relays are the farthest-client greedy
// choice.
func (t *Topology) PlaceRelays(k int, clientCount map[ID]int) ([]ID, error) {
	if len(t.regions) == 0 {
		return nil, ErrNoRegions
	}
	if k < 1 {
		k = 1
	}
	clients := make([]int, 0, len(clientCount))
	for r, c := range clientCount {
		if c <= 0 {
			continue
		}
		i, ok := t.index[r]
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrUnknownRegion, r)
		}
		clients = append(clients, i)
	}
	sort.Ints(clients)
	if len(clients) == 0 {
		// No clients: a single arbitrary relay suffices.
		return []ID{t.regions[0]}, nil
	}

	// Exact 1-center over client regions for the first relay.
	best, bestWorst := -1, time.Duration(0)
	for cand := range t.regions {
		worst := time.Duration(0)
		for _, c := range clients {
			if d := t.lat[c][cand]; d > worst {
				worst = d
			}
		}
		if best == -1 || worst < bestWorst {
			best, bestWorst = cand, worst
		}
	}
	chosen := []int{best}

	for len(chosen) < k && len(chosen) < len(t.regions) {
		// Find the client region farthest from its nearest chosen relay.
		farClient, farDist := -1, time.Duration(-1)
		for _, c := range clients {
			near := unset * 2
			for _, ch := range chosen {
				if d := t.lat[c][ch]; d < near {
					near = d
				}
			}
			if near > farDist {
				farClient, farDist = c, near
			}
		}
		if farClient == -1 || farDist == 0 {
			break // everything already perfectly covered
		}
		already := false
		for _, ch := range chosen {
			if ch == farClient {
				already = true
				break
			}
		}
		if already {
			break
		}
		chosen = append(chosen, farClient)
	}

	out := make([]ID, len(chosen))
	for i, idx := range chosen {
		out[i] = t.regions[idx]
	}
	return out, nil
}

// Replan diffs a fresh k-center placement for the given census against the
// currently deployed relay set: add lists regions that should gain a relay,
// and retire lists deployed relays the new placement drops. Both lists are
// sorted ascending, so a deployment layer applying them (stand up adds,
// migrate clients, drain retires) stays deterministic. A region present in
// both placements appears in neither list.
func (t *Topology) Replan(current []ID, k int, census map[ID]int) (add, retire []ID, err error) {
	placed, err := t.PlaceRelays(k, census)
	if err != nil {
		return nil, nil, err
	}
	have := make(map[ID]bool, len(current))
	for _, r := range current {
		have[r] = true
	}
	want := make(map[ID]bool, len(placed))
	for _, r := range placed {
		want[r] = true
		if !have[r] {
			add = append(add, r)
		}
	}
	for _, r := range current {
		if !want[r] {
			retire = append(retire, r)
		}
	}
	sort.Slice(add, func(i, j int) bool { return add[i] < add[j] })
	sort.Slice(retire, func(i, j int) bool { return retire[i] < retire[j] })
	return add, retire, nil
}

// GlobalCampus returns the paper's world: the two HKUST campuses plus the
// remote-learner regions it names (KAIST in Korea, MIT and Cambridge) and
// major population regions, with realistic one-way latencies. The
// "sa-poor" region models the poorly-peered participant (hundreds of ms
// RTT to everywhere).
func GlobalCampus() *Topology {
	regions := []ID{
		"gz", "hk", "kr", "jp", "us-east", "us-west", "eu-west", "sa-poor",
	}
	t := NewTopology(regions...)
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	pairs := []struct {
		a, b ID
		l    time.Duration
	}{
		{"gz", "hk", ms(8)},
		{"gz", "kr", ms(35)}, {"hk", "kr", ms(30)},
		{"gz", "jp", ms(45)}, {"hk", "jp", ms(40)}, {"kr", "jp", ms(15)},
		{"gz", "us-west", ms(75)}, {"hk", "us-west", ms(70)},
		{"kr", "us-west", ms(60)}, {"jp", "us-west", ms(55)},
		{"gz", "us-east", ms(105)}, {"hk", "us-east", ms(100)},
		{"kr", "us-east", ms(90)}, {"jp", "us-east", ms(85)},
		{"us-west", "us-east", ms(35)},
		{"gz", "eu-west", ms(110)}, {"hk", "eu-west", ms(105)},
		{"kr", "eu-west", ms(120)}, {"jp", "eu-west", ms(115)},
		{"us-east", "eu-west", ms(40)}, {"us-west", "eu-west", ms(70)},
		// Poorly-peered South-American region: long detours everywhere.
		{"sa-poor", "us-east", ms(120)}, {"sa-poor", "us-west", ms(140)},
		{"sa-poor", "eu-west", ms(150)}, {"sa-poor", "gz", ms(220)},
		{"sa-poor", "hk", ms(215)}, {"sa-poor", "kr", ms(210)},
		{"sa-poor", "jp", ms(200)},
	}
	for _, p := range pairs {
		if err := t.SetLatency(p.a, p.b, p.l); err != nil {
			panic(err) // static table; programming error only
		}
	}
	return t
}
