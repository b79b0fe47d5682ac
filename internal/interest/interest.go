// Package interest implements interest management for the cloud VR
// classroom — the mechanism that makes the paper's "thousands of remote
// users" (challenge C2) affordable. Instead of broadcasting every
// participant's every update to every receiver (O(n²) fan-out), each
// receiver subscribes to a spatially and socially relevant subset at
// distance-scaled rates.
package interest

import (
	"math"
	"slices"

	"metaclass/internal/mathx"
	"metaclass/internal/protocol"
)

// Grid is a 2D spatial hash over the classroom floor plane (X/Z), the
// standard area-of-interest index. Update and Remove need exclusive access;
// queries (Neighbors, QueryRadius, Position, Len) write nothing, so any
// number may run concurrently between mutations — the tick's pool workers
// rely on it.
type Grid struct {
	cell float64
	pos  map[protocol.ParticipantID]mathx.Vec3
	grid map[[2]int32][]protocol.ParticipantID

	// Occupied-cell bounding box, maintained incrementally so queries scan
	// min(query square, occupied box) instead of the full query square — a
	// 60m cull radius over 4m cells is a 31×31 = 961-cell square, while a
	// classroom occupies ~16 cells. Inserts extend the box; emptying a
	// boundary cell recomputes it on the spot, so queries only read it.
	bmin, bmax [2]int32
}

// NewGrid creates a grid with the given cell size in meters (default 4).
func NewGrid(cellSize float64) *Grid {
	if cellSize <= 0 {
		cellSize = 4
	}
	return &Grid{
		cell: cellSize,
		pos:  make(map[protocol.ParticipantID]mathx.Vec3),
		grid: make(map[[2]int32][]protocol.ParticipantID),
	}
}

func (g *Grid) key(p mathx.Vec3) [2]int32 {
	return [2]int32{int32(math.Floor(p.X / g.cell)), int32(math.Floor(p.Z / g.cell))}
}

// Update inserts or moves an entity.
func (g *Grid) Update(id protocol.ParticipantID, p mathx.Vec3) {
	if old, ok := g.pos[id]; ok {
		ok2 := g.key(old)
		k2 := g.key(p)
		if ok2 == k2 {
			g.pos[id] = p
			return
		}
		g.removeFromCell(ok2, id)
	}
	g.pos[id] = p
	k := g.key(p)
	if cell := g.grid[k]; len(cell) == 0 {
		if len(g.grid) == 0 {
			g.bmin, g.bmax = k, k
		} else {
			g.bmin[0] = min(g.bmin[0], k[0])
			g.bmin[1] = min(g.bmin[1], k[1])
			g.bmax[0] = max(g.bmax[0], k[0])
			g.bmax[1] = max(g.bmax[1], k[1])
		}
	}
	g.grid[k] = append(g.grid[k], id)
}

// Remove deletes an entity. Removing an absent entity is a no-op.
func (g *Grid) Remove(id protocol.ParticipantID) {
	p, ok := g.pos[id]
	if !ok {
		return
	}
	g.removeFromCell(g.key(p), id)
	delete(g.pos, id)
}

func (g *Grid) removeFromCell(k [2]int32, id protocol.ParticipantID) {
	cell := g.grid[k]
	for i, v := range cell {
		if v == id {
			cell[i] = cell[len(cell)-1]
			cell = cell[:len(cell)-1]
			break
		}
	}
	if len(cell) == 0 {
		delete(g.grid, k)
		if k[0] == g.bmin[0] || k[0] == g.bmax[0] || k[1] == g.bmin[1] || k[1] == g.bmax[1] {
			g.recomputeBounds()
		}
	} else {
		g.grid[k] = cell
	}
}

// recomputeBounds rebuilds the occupied-cell bounding box from the occupied
// cells (an empty grid leaves it stale; the next insert resets it).
func (g *Grid) recomputeBounds() {
	first := true
	for k := range g.grid {
		if first {
			g.bmin, g.bmax = k, k
			first = false
			continue
		}
		g.bmin[0] = min(g.bmin[0], k[0])
		g.bmin[1] = min(g.bmin[1], k[1])
		g.bmax[0] = max(g.bmax[0], k[0])
		g.bmax[1] = max(g.bmax[1], k[1])
	}
}

// Len returns the number of indexed entities.
func (g *Grid) Len() int { return len(g.pos) }

// Position returns an entity's indexed position.
func (g *Grid) Position(id protocol.ParticipantID) (mathx.Vec3, bool) {
	p, ok := g.pos[id]
	return p, ok
}

// QueryRadius returns all entities within radius of center (2D, X/Z plane),
// sorted by ID for determinism. The center entity itself is included if
// indexed and in range.
func (g *Grid) QueryRadius(center mathx.Vec3, radius float64) []protocol.ParticipantID {
	return g.Neighbors(center, radius, nil)
}

// Neighbors appends all entities within radius of center (2D, X/Z plane) to
// buf and returns the extended slice, sorted by ID for determinism. The
// center entity itself is included if indexed and in range. Passing a reused
// buf (sliced to length zero) makes repeated queries allocation-free; the
// spatial hash visits only the cells overlapping the query square, so cost
// scales with local density instead of total population.
func (g *Grid) Neighbors(center mathx.Vec3, radius float64, buf []protocol.ParticipantID) []protocol.ParticipantID {
	if radius < 0 {
		return buf
	}
	if len(g.grid) == 0 {
		return buf
	}
	bmin, bmax := g.bmin, g.bmax
	base := len(buf)
	r2 := radius * radius
	lo := g.key(center.Sub(mathx.V3(radius, 0, radius)))
	hi := g.key(center.Add(mathx.V3(radius, 0, radius)))
	lo[0] = max(lo[0], bmin[0])
	lo[1] = max(lo[1], bmin[1])
	hi[0] = min(hi[0], bmax[0])
	hi[1] = min(hi[1], bmax[1])
	for cx := lo[0]; cx <= hi[0]; cx++ {
		for cz := lo[1]; cz <= hi[1]; cz++ {
			for _, id := range g.grid[[2]int32{cx, cz}] {
				p := g.pos[id]
				dx, dz := p.X-center.X, p.Z-center.Z
				if dx*dx+dz*dz <= r2 {
					buf = append(buf, id)
				}
			}
		}
	}
	slices.Sort(buf[base:])
	return buf
}

// Tier classifies how relevant a source entity is to a receiver.
type Tier uint8

// Relevance tiers.
const (
	TierFocus   Tier = iota // near or socially pinned: full rate, fine LoD
	TierNear                // same area: half rate
	TierFar                 // visible across the room: quarter rate
	TierAmbient             // crowd backdrop: 1/8 rate, impostor LoD
	TierCulled              // outside interest: no updates
)

// String implements fmt.Stringer.
func (t Tier) String() string {
	switch t {
	case TierFocus:
		return "focus"
	case TierNear:
		return "near"
	case TierFar:
		return "far"
	case TierAmbient:
		return "ambient"
	default:
		return "culled"
	}
}

// RateDivisor returns the per-tier tick decimation: an update is sent on
// ticks where tick % divisor == 0.
func (t Tier) RateDivisor() uint64 {
	switch t {
	case TierFocus:
		return 1
	case TierNear:
		return 2
	case TierFar:
		return 4
	case TierAmbient:
		return 8
	default:
		return 0 // culled: never
	}
}

// Policy maps receiver-to-source geometry (and social pins) to tiers.
type Policy struct {
	// FocusRadius, NearRadius, FarRadius are the tier boundaries in meters
	// (defaults 3/8/20). Beyond FarRadius but inside CullRadius is ambient.
	FocusRadius, NearRadius, FarRadius float64
	// CullRadius drops sources entirely (default 60).
	CullRadius float64
	// Pinned sources (the lecturer, the current speaker) are always focus.
	Pinned map[protocol.ParticipantID]bool
}

// NewPolicy returns a policy with classroom-scale defaults.
func NewPolicy() *Policy {
	return &Policy{
		FocusRadius: 3, NearRadius: 8, FarRadius: 20, CullRadius: 60,
		Pinned: make(map[protocol.ParticipantID]bool),
	}
}

// Pin marks a source as always-focus for every receiver (e.g. the educator:
// everyone watches the lecturer regardless of distance).
func (p *Policy) Pin(id protocol.ParticipantID) { p.Pinned[id] = true }

// Unpin removes a pin.
func (p *Policy) Unpin(id protocol.ParticipantID) { delete(p.Pinned, id) }

// Classify returns the tier of source for a receiver at the given distance.
// It delegates to ClassifySq so the two can never disagree at a radius
// boundary: comparing d against r and d*d against r*r round differently in
// float64, and a source classified TierNear by one path and TierFar by the
// other would decimate on different ticks depending on which caller asked.
func (p *Policy) Classify(source protocol.ParticipantID, distance float64) Tier {
	return p.ClassifySq(source, distance*distance)
}

// ClassifySq is Classify taking the squared distance, letting hot fan-out
// paths skip the sqrt of a Euclidean distance computation entirely.
func (p *Policy) ClassifySq(source protocol.ParticipantID, distSq float64) Tier {
	if p.Pinned[source] {
		return TierFocus
	}
	switch {
	case distSq <= p.FocusRadius*p.FocusRadius:
		return TierFocus
	case distSq <= p.NearRadius*p.NearRadius:
		return TierNear
	case distSq <= p.FarRadius*p.FarRadius:
		return TierFar
	case distSq <= p.CullRadius*p.CullRadius:
		return TierAmbient
	default:
		return TierCulled
	}
}

// Phase returns the deterministic decimation phase of a source: a fixed
// integer hash of its ID (splitmix64 finalizer). A tier with divisor d sends
// source id on ticks where tick % d == Phase(id) % d, so each tier's traffic
// spreads evenly across the divisor's ticks instead of every Ambient source
// bursting together on tick%8 == 0. The phase depends only on the ID — no
// clock, no randomness — so replication stays byte-identical across runs and
// worker counts.
func Phase(source protocol.ParticipantID) uint64 {
	x := uint64(source) + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ShouldSend reports whether source (in tier t for some receiver) should be
// included in the update sent at the given tick. Sends are decimated to the
// tier's RateDivisor and phase-staggered per source by Phase.
func ShouldSend(t Tier, source protocol.ParticipantID, tick uint64) bool {
	d := t.RateDivisor()
	if d == 0 {
		return false
	}
	return tick%d == Phase(source)%d
}

// Set is a per-receiver cache of the sources whose update is due at the
// current tick, rebuilt at most once per tick from one spatial query. It
// replaces an all-pairs distance test per (receiver, source) with a
// Neighbors query plus squared-distance classification, then answers each
// source in O(1). Servers keep one Set per subscribed client.
type Set struct {
	allowed  map[protocol.ParticipantID]bool
	allowAll bool
	recv     protocol.ParticipantID
	tick     uint64
	// scratch is the set-owned neighbor buffer RefreshOwned queries into.
	// Owning it here (instead of a buffer shared across receivers) is what
	// lets the tick refresh many clients' sets concurrently: each refresh
	// touches only its own set's state and reads the shared grid.
	scratch []protocol.ParticipantID
}

// NewSet returns an empty, ready-to-refresh set.
func NewSet() *Set {
	return &Set{allowed: make(map[protocol.ParticipantID]bool)}
}

// Reset clears the set for reuse by another receiver (the node runtime pools
// per-client sets across join/leave churn). The allowed map keeps its
// capacity; the tick marker rewinds so the next RefreshOwned rebuilds.
func (s *Set) Reset() {
	clear(s.allowed)
	s.allowAll = false
	s.recv = 0
	s.tick = 0
}

// RefreshOwned rebuilds the set for receiver recv at tick, at most once per
// tick (ticks start at 1; zero means never built), querying into the set's
// own neighbor buffer. Distinct sets may be refreshed concurrently (each
// touches only its own state; the grid and policy are read-only), which is
// how the tick shards per-client classification across the pool's workers.
// While recv is not indexed in g the set admits everything — a just-joined
// receiver needs the full world until placed. The receiver itself is never
// admitted: `Allows(g, recv) == false` is part of the contract, even in
// admit-everything mode and even when recv is pinned.
func (s *Set) RefreshOwned(g *Grid, p *Policy, recv protocol.ParticipantID, tick uint64) {
	s.recv = recv
	if s.tick == tick {
		return
	}
	s.tick = tick
	recvPos, ok := g.Position(recv)
	if !ok {
		s.allowAll = true
		return
	}
	s.allowAll = false
	clear(s.allowed)
	s.scratch = g.Neighbors(recvPos, p.CullRadius, s.scratch[:0])
	for _, id := range s.scratch {
		if id == recv { // Neighbors includes the query center
			continue
		}
		pos, _ := g.Position(id)
		dx, dz := pos.X-recvPos.X, pos.Z-recvPos.Z
		if ShouldSend(p.ClassifySq(id, dx*dx+dz*dz), id, tick) {
			s.allowed[id] = true
		}
	}
	// Pinned sources are focus-tier regardless of distance (divisor 1, so no
	// decimation check). A pinned receiver still never receives itself.
	for id := range p.Pinned {
		if id == recv {
			continue
		}
		if _, indexed := g.Position(id); indexed {
			s.allowed[id] = true
		}
	}
}

// Allows reports whether source id should be sent this tick. The receiver
// the set was last refreshed for is never allowed. Other sources not indexed
// in g bypass interest management (the caller cannot place them).
// RefreshOwned must have been called for the current tick.
func (s *Set) Allows(g *Grid, id protocol.ParticipantID) bool {
	if id == s.recv {
		return false
	}
	if s.allowAll {
		return true
	}
	if _, indexed := g.Position(id); !indexed {
		return true
	}
	return s.allowed[id]
}

// Plan computes, for a receiver at recv, the set of source IDs to include at
// this tick. sources must be indexed in g. The receiver itself is excluded.
func Plan(g *Grid, p *Policy, recv protocol.ParticipantID, recvPos mathx.Vec3, tick uint64) []protocol.ParticipantID {
	candidates := g.QueryRadius(recvPos, p.CullRadius)
	out := make([]protocol.ParticipantID, 0, len(candidates))
	for _, id := range candidates {
		if id == recv {
			continue
		}
		pos, _ := g.Position(id)
		dx, dz := pos.X-recvPos.X, pos.Z-recvPos.Z
		if ShouldSend(p.ClassifySq(id, dx*dx+dz*dz), id, tick) {
			out = append(out, id)
		}
	}
	// Pinned sources are focus even outside the cull radius. A pinned source
	// inside the cull radius already classified TierFocus above (divisor 1,
	// sent every tick), so membership in the sorted candidates slice — not a
	// scan of out — is the dedup test.
	for id := range p.Pinned {
		if id == recv {
			continue
		}
		if _, ok := g.Position(id); !ok {
			continue
		}
		if _, inRadius := slices.BinarySearch(candidates, id); inRadius {
			continue
		}
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}
