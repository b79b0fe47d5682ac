package bench

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"time"

	"metaclass/internal/core"
	"metaclass/internal/endpoint"
	"metaclass/internal/protocol"
)

// freshLimit is the paper's C1 budget: an update applied within 100 ms of
// its capture is fresh.
const freshLimit = 100 * time.Millisecond

// ageBucket is the resolution of the pose-age distribution; quantiles
// interpolate inside a bucket, so they are exact to well below it.
const (
	ageBucket  = 10 * time.Microsecond
	ageBuckets = 400_000 // 4 s; older samples land in the last bucket
)

// ageHist is a fixed-memory linear histogram of virtual capture→apply ages.
type ageHist struct {
	buckets []uint32
	n       uint64
	fresh   uint64
}

func (h *ageHist) add(age time.Duration) {
	if h.buckets == nil {
		h.buckets = make([]uint32, ageBuckets)
	}
	if age < 0 {
		age = 0
	}
	i := int(age / ageBucket)
	if i >= ageBuckets {
		i = ageBuckets - 1
	}
	h.buckets[i]++
	h.n++
	if age <= freshLimit {
		h.fresh++
	}
}

// quantileMs returns the q-quantile in milliseconds, interpolating by rank
// inside the bucket that holds it.
func (h *ageHist) quantileMs(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			frac := (rank - cum) / float64(c)
			return (float64(i) + frac) * float64(ageBucket) / float64(time.Millisecond)
		}
		cum += float64(c)
	}
	return float64(ageBuckets) * float64(ageBucket) / float64(time.Millisecond)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// session is one operation of a workload: a participant that joins, must see
// its first sync within a second of virtual time, and must agree with its
// serving node when the run quiesces.
type session struct {
	id     protocol.ParticipantID
	joinAt time.Duration
	syncAt time.Duration
	synced bool
	// diverged is why the session failed ("" = it did not); stale is the first
	// difference the strict byte-equality comparison found ("" = none).
	diverged string
	stale    string
}

const (
	// quiesceFor is how long servers keep ticking after the sources stop.
	quiesceFor = 3 * time.Second
	// staleLimit is how far behind its serving world a quiesced replica's
	// entity may be before the session fails. Strict equality is what the
	// protocol promises, but at the parent commit the final change of a
	// decimated entity can strand one publish behind (the owed guard treats
	// state stamped with an already-planned tick as carried by that tick's
	// message), so strict differences are counted as audit.stale_sessions
	// and only a replica that stopped following its world fails.
	staleLimit = time.Second
)

// audit compares a quiesced replica with the world it mirrors. wanted
// selects the world entities the replica must hold; session returns the
// operation a finding about an entity counts against.
func audit(world, replica *core.Store, wanted func(protocol.ParticipantID) bool, session func(protocol.ParticipantID) *session) {
	// note records a strict difference; when fatal it also fails the session.
	note := func(eid protocol.ParticipantID, fatal bool, format string, args ...any) {
		s := session(eid)
		if s.stale == "" {
			s.stale = fmt.Sprintf(format, args...)
		}
		if fatal && s.diverged == "" {
			s.diverged = fmt.Sprintf(format, args...)
		}
	}
	for _, eid := range world.IDs() {
		if !wanted(eid) {
			continue
		}
		want, _ := world.Get(eid)
		got, ok := replica.Get(eid)
		switch {
		case !ok:
			note(eid, true, "entity %d missing (world stamp %v)", eid, want.CapturedAt)
		case got.CapturedAt != want.CapturedAt || got.Pose != want.Pose || got.VelMMS != want.VelMMS ||
			got.Seat != want.Seat || got.Flags != want.Flags || !bytes.Equal(got.Expression, want.Expression):
			note(eid, want.CapturedAt-got.CapturedAt > staleLimit,
				"entity %d differs (replica stamp %v, world stamp %v)", eid, got.CapturedAt, want.CapturedAt)
		}
	}
	for _, eid := range replica.IDs() {
		if _, ok := world.Get(eid); !ok {
			note(eid, true, "entity %d is a ghost", eid)
		}
	}
}

// firstSyncLimit fails a session that has not applied a sync this long after
// joining.
const firstSyncLimit = time.Second

// frameRingSize is how many captured replication frames the kernels replay.
const frameRingSize = 64

// collector gathers everything the taps observe. Counters are cumulative
// over the measured window (reset drops the warm-up); the per-step lists are
// drained by endStep outside the timed region.
type collector struct {
	now func() time.Duration // the workload's virtual clock
	tr  tracer
	// layers turns on the per-layer bookkeeping that costs time on the send
	// path (distinct-frame tracking, the kernel frame ring). It stays off in
	// the runs that produce end-to-end numbers.
	layers bool

	sessions []*session
	dec      protocol.Decoder

	captured   []capture
	ages       ageHist
	decodeErrs uint64

	framesSent, bytesSent, servedBytes uint64
	snapshotsSent, deltasSent          uint64
	msgsRecv                           uint64
	entitiesRecv                       uint64 // entity states decoded from captured frames

	distinct       map[*protocol.Frame]struct{}
	distinctFrames uint64
	ring           [][]byte // the window's first replication frames sent, for the kernels

	// transit pairs each traced SendFrame return with the peer's receive
	// entry (TCP only; nil elsewhere). Connections are FIFO, so a queue per
	// directed pair is enough.
	transit   map[[2]endpoint.Addr][]time.Time
	transitNs []float64
}

func newCollector(layers bool) *collector {
	c := &collector{layers: layers}
	c.tr.epoch = time.Now()
	if layers {
		c.distinct = make(map[*protocol.Frame]struct{})
	}
	return c
}

// newSession registers an operation joining now.
func (c *collector) newSession(id protocol.ParticipantID, joinAt time.Duration) *session {
	s := &session{id: id, joinAt: joinAt}
	c.sessions = append(c.sessions, s)
	return s
}

// resetWindow drops what the warm-up accumulated so the window's counters
// start at zero. Sessions and receiver state carry over: joins made during
// set-up are operations of the run.
func (c *collector) resetWindow() {
	c.ages = ageHist{}
	c.framesSent, c.bytesSent, c.servedBytes = 0, 0, 0
	c.snapshotsSent, c.deltasSent = 0, 0
	c.msgsRecv, c.entitiesRecv = 0, 0
	c.distinctFrames = 0
	c.ring = c.ring[:0]
	c.transitNs = c.transitNs[:0]
	c.tr.selfNs = [spanKinds]time.Duration{}
}

// endStep decodes the step's captured frames into pose ages and first-sync
// times, then releases them. It runs outside the timed region.
func (c *collector) endStep() {
	for i, cp := range c.captured {
		c.decode(cp)
		cp.f.Release()
		c.captured[i] = capture{}
	}
	c.captured = c.captured[:0]
	if c.layers {
		c.distinctFrames += uint64(len(c.distinct))
		clear(c.distinct)
	}
}

func (c *collector) decode(cp capture) {
	msg, _, err := c.dec.Decode(cp.f.Bytes())
	if err != nil {
		c.decodeErrs++
		return
	}
	var ents []protocol.EntityState
	switch m := msg.(type) {
	case *protocol.Snapshot:
		ents = m.Entities
	case *protocol.Delta:
		ents = m.Changed
	}
	rs := cp.rs
	if rs.onMsg != nil {
		rs.onMsg(msg)
	}
	if s := rs.sess; s != nil && !s.synced {
		s.synced, s.syncAt = true, cp.now
	}
	c.entitiesRecv += uint64(len(ents))
	for i := range ents {
		e := &ents[i]
		if last, ok := rs.lastSeen[e.Participant]; ok && e.CapturedAt <= last {
			continue
		}
		rs.lastSeen[e.Participant] = e.CapturedAt
		c.ages.add(cp.now - e.CapturedAt)
		if s := rs.entities[e.Participant]; s != nil && !s.synced {
			s.synced, s.syncAt = true, cp.now
		}
	}
}

// joinStats returns the join→first-sync latencies in milliseconds, failing
// sessions that never synced inside the limit, and counts the failed sessions
// and those the strict comparison found stale.
func (c *collector) joinStats() (ms []float64, failed, stale int) {
	for _, s := range c.sessions {
		switch {
		case s.synced && s.syncAt-s.joinAt <= firstSyncLimit:
			ms = append(ms, float64(s.syncAt-s.joinAt)/float64(time.Millisecond))
		case s.diverged == "":
			s.diverged = "no first sync within 1s"
		}
		if s.diverged != "" {
			failed++
		}
		if s.stale != "" {
			stale++
		}
	}
	return ms, failed, stale
}
