package interest

import "metaclass/internal/protocol"

// The per-source statements of the interest rules, which only the tests ask:
// the tier a source is in and whether it is due at a tick, and Set.Allows,
// one source at a time. The production path, Set.RefreshOwned's bits, is
// checked against them.

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

// RateDivisor returns the per-tier tick decimation: a source is sent on the
// ticks where tick % divisor == Phase(source) % divisor.
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

// due reports whether a source with the given decimation phase, in tier t for
// some receiver, is sent at tick. Every divisor is a power of two, so
// tick%d == phase%d is a mask test on tick^phase. This is the per-source
// statement of the rule, which the brute-force oracles are written in;
// Set.RefreshOwned applies the same rule to a whole neighbourhood without
// naming a tier.
func (t Tier) due(phase, tick uint64) bool {
	d := t.RateDivisor()
	return d != 0 && (tick^phase)&(d-1) == 0
}

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

// ShouldSend reports whether source (in tier t for some receiver) should be
// included in the update sent at the given tick. Sends are decimated to the
// tier's RateDivisor and phase-staggered per source by Phase.
func ShouldSend(t Tier, source protocol.ParticipantID, tick uint64) bool {
	return t.due(Phase(source), tick)
}

// Allows reports whether source id should be sent this tick: whether the
// bits of the set's last refresh leave id's slot clear. The receiver the set
// was last refreshed for is never allowed. Other sources not indexed in g
// bypass interest management (the caller cannot place them). RefreshOwned
// must have been called for the current tick, with no grid write since.
func (s *Set) Allows(g *Grid, id protocol.ParticipantID) bool {
	if id == s.recv {
		return false
	}
	at, indexed := g.seatOf(id)
	if !indexed {
		return true
	}
	slot := g.ids[at].slot
	return int(slot/64) >= len(s.refused) || s.refused[slot/64]&(1<<(slot%64)) == 0
}
