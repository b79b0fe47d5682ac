package pose

import "time"

// InterpBuffer is the receiver-side playout buffer: it stores recent pose
// samples for a remote participant and reconstructs the pose at display time
// by rendering a delay behind the newest sample (interpolation) and falling
// back to an Extrapolator when the buffer runs dry.
//
// The delay trades latency against smoothness: it must cover network jitter
// or playback stutters, but adds directly to the end-to-end motion-to-photon
// lag the paper's 100 ms budget constrains. The header (56 bytes) holds the
// entity's own state; the delay and the rest are its pool's (playout).
type InterpBuffer struct {
	// ring holds the n buffered samples, stamps strictly increasing, from
	// ring[head] (the oldest) and wrapping; len(ring) is the capacity.
	ring    []Pose
	head, n int
	// newest is the stamp of the newest sample, ring[slot(n-1)].Time, valid
	// while n > 0: the in-order test reads it from the header, not the ring.
	newest time.Duration
	*playout
}

// playout is what a pool's buffers share: the delay, the extrapolator and
// the read counters.
type playout struct {
	delay  time.Duration
	extrap Extrapolator

	interpolated uint64
	extrapolated uint64
	clamped      uint64
}

// NewInterpBuffer creates a buffer rendering delay behind live, holding up to
// capacity samples, using extrap beyond the newest sample. A nil extrap
// defaults to Linear; capacity < 2 defaults to 64. Its pool is its own.
func NewInterpBuffer(delay time.Duration, capacity int, extrap Extrapolator) *InterpBuffer {
	p := newInterpPool(delay, capacity, extrap)
	return &InterpBuffer{ring: make([]Pose, p.cap), playout: &p.playout}
}

// slot returns the ring index of the i-th buffered sample, oldest first
// (0 <= i <= n, i < cap); slot(1) is where head goes when the oldest leaves.
func (b *InterpBuffer) slot(i int) int {
	if i += b.head; i >= len(b.ring) {
		i -= len(b.ring)
	}
	return i
}

// Push inserts a sample and reports whether it advanced the newest stamp
// (fresh information, as opposed to a redelivery or a late arrival). A full
// buffer evicts its oldest sample. Out-of-order samples older than the newest
// are inserted in order; duplicates by timestamp replace the stored sample.
// Only the fast path moves the newest stamp: a late arrival, a duplicate and
// an evictee all leave it where it was.
func (b *InterpBuffer) Push(p Pose) bool {
	at, fresh := b.Place(p.Time)
	if at != nil {
		*at = p
	}
	return fresh
}

// Place does Push's bookkeeping for a sample stamped t and hands out the slot
// Push would write, with Push's result; it returns nil, and changes nothing,
// when the sample is a full buffer's evictee. The slot still holds whatever
// was there: the caller writes every field of the sample, Time = t included,
// before the buffer is used again.
func (b *InterpBuffer) Place(t time.Duration) (*Pose, bool) {
	// Fast path: newest sample, one slot handed out and no sample read.
	if b.n == 0 || t > b.newest {
		if b.n == len(b.ring) {
			b.head = b.slot(1)
		} else {
			b.n++
		}
		b.newest = t
		return &b.ring[b.slot(b.n-1)], true
	}
	return b.placeLate(t), false
}

// placeLate is Place for a stamp at or below the newest.
func (b *InterpBuffer) placeLate(t time.Duration) *Pose {
	// i counts the buffered samples older than t (they land near the back,
	// so scan from there).
	i := b.n - 1
	for i > 0 && b.ring[b.slot(i-1)].Time >= t {
		i--
	}
	if at := &b.ring[b.slot(i)]; at.Time == t {
		return at // a duplicate stamp: its sample is replaced
	}
	if b.n == len(b.ring) {
		if i == 0 {
			return nil // older than everything in a full buffer: the evictee
		}
		b.head = b.slot(1)
		b.n--
		i--
	}
	// Shift the samples newer than t up one slot and hand out the gap.
	for j := b.n; j > i; j-- {
		b.ring[b.slot(j)] = b.ring[b.slot(j-1)]
	}
	b.n++
	return &b.ring[b.slot(i)]
}

// Len returns the number of buffered samples.
func (b *InterpBuffer) Len() int { return b.n }

// Newest returns the most recent sample and whether one exists.
func (b *InterpBuffer) Newest() (Pose, bool) {
	if b.n == 0 {
		return Pose{}, false
	}
	return b.ring[b.slot(b.n-1)], true
}

// Sample reconstructs the pose at display time now, rendering at target time
// now - delay. It returns false only when the buffer is empty: a target past
// the newest sample is extrapolated, one before the oldest holds the oldest
// (Clamped).
func (b *InterpBuffer) Sample(now time.Duration) (Pose, bool) {
	if b.n == 0 {
		return Pose{}, false
	}
	target := now - b.delay
	if newest := &b.ring[b.slot(b.n-1)]; target >= newest.Time {
		// Beyond buffered data: dead-reckon forward from the newest sample.
		b.extrapolated++
		return b.extrap.Predict(*newest, target).At(now), true
	}
	if oldest := &b.ring[b.head]; target <= oldest.Time {
		// Before buffered data: hold the oldest sample. In a full ring that is
		// evicted history the read wanted; in one still filling, the start.
		if target < oldest.Time && b.n == len(b.ring) {
			b.clamped++
		}
		return oldest.At(now), true
	}
	// Binary search for the bracketing pair.
	lo, hi := 0, b.n-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if b.ring[b.slot(mid)].Time <= target {
			lo = mid
		} else {
			hi = mid
		}
	}
	a, c := &b.ring[b.slot(lo)], &b.ring[b.slot(hi)]
	t := float64(target-a.Time) / float64(c.Time-a.Time)
	b.interpolated++
	return LerpPose(*a, *c, t).At(now), true
}

// Stats reports how many samples were answered by interpolation vs.
// extrapolation — the extrapolation share rises when updates arrive slower
// than the delay covers. It counts every buffer of the pool (for
// NewInterpBuffer's, the buffer alone).
func (p *playout) Stats() (interpolated, extrapolated uint64) {
	return p.interpolated, p.extrapolated
}

// Clamped reports how many samples a full buffer answered by holding its
// oldest sample because the target fell before it: the history the read
// wanted had been evicted. Any non-zero count means the buffer is too shallow
// for its reader — updates arrive faster than capacity covers the delay
// (playback moves in steps), or now lay further in the past than the buffer
// keeps. A buffer still filling holds its first sample the same way,
// uncounted. Like Stats, it counts every buffer of the pool.
func (p *playout) Clamped() uint64 { return p.clamped }

// InterpPool recycles sample rings for one receiver's playout buffers. A
// client first seeing an N-entity world otherwise allocates N rings one at a
// time; the pool carves them from slab allocations (one shared []Pose backing
// per slab) so a cold join costs a few slab allocations instead of
// O(entities), and entity churn after the join (interest flicker, seat reuse,
// migration re-joins) recycles rings instead of minting garbage. The buffer
// headers are the caller's: Acquire fills one in place, Release empties it.
//
// Its buffers read the pool's delay and extrapolator and add to its counters.
// Not safe for concurrent use — single-goroutine, like the Replica that owns
// it.
type InterpPool struct {
	playout
	cap  int
	slab int
	free [][]Pose
}

// newInterpPool applies NewInterpBuffer's defaults and carves nothing.
func newInterpPool(delay time.Duration, capacity int, extrap Extrapolator) *InterpPool {
	if capacity < 2 {
		capacity = 64
	}
	if extrap == nil {
		extrap = Linear{}
	}
	return &InterpPool{playout: playout{delay: delay, extrap: extrap}, cap: capacity}
}

// NewInterpPool creates a pool filling buffers equivalent to
// NewInterpBuffer(delay, capacity, extrap). slab is the number of rings
// carved per slab allocation (min 8; default 64 when <= 0).
func NewInterpPool(delay time.Duration, capacity int, extrap Extrapolator, slab int) *InterpPool {
	if slab <= 0 {
		slab = 64
	}
	p := newInterpPool(delay, capacity, extrap)
	p.slab = max(slab, 8)
	p.free = make([][]Pose, 0, p.slab)
	return p
}

// Acquire makes *b an empty buffer with a pooled ring and the pool's delay
// and extrapolator, carving a slab when no ring is free. Whatever *b held is
// overwritten: it must hold no ring of its own.
func (p *InterpPool) Acquire(b *InterpBuffer) {
	if len(p.free) == 0 {
		p.grow()
	}
	n := len(p.free) - 1
	*b = InterpBuffer{ring: p.free[n], playout: &p.playout}
	p.free[n] = nil
	p.free = p.free[:n]
}

// Release takes b's ring back and zeroes *b. Only a buffer filled by this
// pool's Acquire may be released, once; the zeroed header keeps no ring, so
// a copy of it can never write into the ring's next holder.
func (p *InterpPool) Release(b *InterpBuffer) {
	p.free = append(p.free, b.ring)
	*b = InterpBuffer{}
}

// grow carves one slab: a single []Pose backing sliced into rings of cap
// samples each (three-index slices, so no ring can reach its neighbour's).
func (p *InterpPool) grow() {
	backing := make([]Pose, p.slab*p.cap)
	for lo := 0; lo < len(backing); lo += p.cap {
		p.free = append(p.free, backing[lo:lo+p.cap:lo+p.cap])
	}
}
