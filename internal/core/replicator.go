package core

import (
	"errors"
	"fmt"
	"sort"

	"metaclass/internal/protocol"
	"metaclass/internal/work"
)

// Replicator errors.
var (
	ErrPeerExists  = errors.New("core: peer already registered")
	ErrUnknownPeer = errors.New("core: unknown peer")
)

// FilterFunc gates which entities a peer receives at a tick, one entity per
// call (AddPeer adapts it to a RefusedFunc). A nil FilterFunc admits everything.
type FilterFunc func(id protocol.ParticipantID, tick uint64) bool

// RefusedFunc is a peer's interest, asked once per build: it appends the IDs
// the peer refuses at tick to dst, ascending, and returns the extended slice.
// IDs the store does not hold may be listed. A nil RefusedFunc refuses nothing.
type RefusedFunc func(tick uint64, dst []protocol.ParticipantID) []protocol.ParticipantID

// maxDeltaWindow is the largest tick distance between a peer's ack and the
// current tick that a delta may span; past it the peer gets a full snapshot,
// which bounds both delta size and removal-log growth (150 ticks is 5 s at
// 30 Hz).
const maxDeltaWindow = 150

// owedSettleTicks is how long an entity must sit unchanged before a peer's
// owed sweep delivers its suppressed change: 8, the largest interest rate
// divisor. While an entity keeps changing, each phase-tick send supersedes
// the suppressed change, so an eager sweep would only duplicate traffic the
// candidate walk is about to carry anyway; the sweep exists to converge
// entities that went quiet with their last change unsent.
const owedSettleTicks = 8

// ReplConfig tunes replication behavior.
type ReplConfig struct {
	// Pool runs PlanTick's independent builds — one per peer: settle its
	// queued acks, then its snapshot or delta, framed and checksummed — on
	// its workers; the results merge back in sorted-peer order, so the plan is
	// the same at every width. nil runs the builds inline on the caller.
	//
	// A peer's RefusedFunc is called once per build, into its worker's
	// scratch, concurrently with other peers' (never with itself): it must
	// read only state immutable for the duration of PlanTick plus state owned
	// by its own peer. The store itself is read-only while the builds run.
	Pool *work.Pool
}

type peerState struct {
	ackTick   uint64
	acked     bool
	snapshots uint64
	deltas    uint64
	// refused is the peer's interest (nil refuses nothing).
	refused RefusedFunc
	// owed tracks the entities this peer may not hold the latest state of:
	// changes its filter suppressed, and debt marked by handoff. Owned
	// exclusively by this peer's builds and acks — see OwedSet for the
	// ownership and determinism contract.
	owed OwedSet
	// sent is the outstanding send log: one record per planned message not
	// yet resolved by an ack, ascending by tick. newestAck is the highest
	// tick acked so far — the log has been resolved through it.
	sent      []sentRecord
	newestAck uint64
}

// sentRecord is one outstanding planned message in a peer's send log: the
// message tick, the delta baseline it was built against (unused for
// snapshots), and whether it was a full snapshot.
type sentRecord struct {
	tick uint64
	base uint64
	snap bool
}

// maxSentLog bounds a peer's outstanding send log. A peer silent this long
// is far past maxDeltaWindow and receiving snapshots; dropping the oldest
// records costs nothing because any snapshot ack restores total coverage.
const maxSentLog = 512

// noteSent appends a record to the outstanding send log.
func (p *peerState) noteSent(tick, base uint64, snap bool) {
	if len(p.sent) >= maxSentLog {
		copy(p.sent, p.sent[1:])
		p.sent = p.sent[:len(p.sent)-1]
	}
	p.sent = append(p.sent, sentRecord{tick: tick, base: base, snap: snap})
}

// resolveAck pops the send log through tick and returns the baseline the
// ack actually proves, plus whether a possible loss was detected. An ack of
// a snapshot proves everything below its tick. An ack of a delta proves the
// current floor plus that delta's window — contiguous only if no unacked
// delta with an older base was skipped on the way; if one was, its window
// may be lost in flight, so the baseline falls back to the skipped delta's
// base and the next plan re-covers the window. The fallback may lie BELOW
// the current floor: content authored between a tick's plan and the next is
// stamped with the already-planned tick, so the in-order ack of tick T
// proves delivery only through stamp T-1 while the floor reads T — a lost
// T+1 strands stamp-T content behind a floor that already passed it, and
// only a regression re-opens the window. Skipped deltas sharing the acked
// message's base need no repair: the acked message carried their whole
// window again.
func (p *peerState) resolveAck(tick uint64) (uint64, bool) {
	n := 0
	matched, matchedSnap := false, false
	var matchedBase uint64
	skipped, skippedBase := false, uint64(0)
	for n < len(p.sent) && p.sent[n].tick <= tick {
		rec := p.sent[n]
		n++
		if rec.tick == tick {
			matched, matchedSnap, matchedBase = true, rec.snap, rec.base
			break
		}
		if !rec.snap && (!skipped || rec.base < skippedBase) {
			// The oldest skipped base re-opens every skipped window.
			skipped, skippedBase = true, rec.base
		}
	}
	if n > 0 {
		copy(p.sent, p.sent[n:])
		p.sent = p.sent[:len(p.sent)-n]
	}
	switch {
	case matched && matchedSnap:
		return tick, false
	case matched && skipped && skippedBase < matchedBase:
		return skippedBase, true
	case !matched && skipped:
		return skippedBase, true
	default:
		return tick, false
	}
}

// reset clears a peer's replication state for reuse while keeping its
// allocated scratch (the owed set, the send log), so onboarding a client
// after a departure allocates nothing.
func (p *peerState) reset() {
	p.ackTick, p.acked, p.newestAck = 0, false, 0
	p.snapshots, p.deltas = 0, 0
	p.refused = nil
	p.owed.Reset()
	p.sent = p.sent[:0]
}

// Replicator plans per-peer replication messages from a Store: every peer
// gets a Snapshot or Delta built for it alone, filtered or not.
type Replicator struct {
	store *Store
	cfg   ReplConfig
	peers map[string]*peerState

	// sortedIDs caches the sorted peer-ID slice between membership changes.
	sortedIDs []string
	idsDirty  bool

	// plan is the last PlanTick's result, reused across calls to keep the hot
	// path allocation-free. Its entries hold their frames until Fanout takes
	// them or ReleasePlan (the next PlanTick's first step) releases them.
	plan []PeerMessage

	// pruneDirty defers removal-log pruning to once per PlanTick: acks only
	// record their tick, so a fully-acking classroom costs O(peers) per tick
	// instead of O(peers²) (one O(peers) min-scan per Ack).
	pruneDirty bool

	// prunedTo is the highest tick the removal log has been pruned below.
	// ImportBaseline refuses to honor an ack floor under it: removals at or
	// below a pruned tick are gone from the log, so a delta from such a
	// baseline could silently skip them and leave ghosts on the peer.
	prunedTo uint64

	// freePeers pools peer states released by RemovePeer so a join/leave
	// storm (E11 churn) reuses owed sets and send logs instead of
	// reallocating them per onboarding.
	freePeers []*peerState

	// Build scratch: one job per peer in sorted-peer order, the hoisted job
	// runner (built once so Run allocates nothing), a refused list per worker.
	jobs    []planJob
	runJob  func(worker, i int)
	refused [][]protocol.ParticipantID
}

// planJob is one peer's build in a PlanTick: a snapshot when snap is set,
// otherwise a delta, into a frame of its own. Each job writes only its own
// fields (plus its peer's owed set), so jobs are safe to execute
// concurrently.
type planJob struct {
	id   string
	peer *peerState
	snap bool
	// frame is the build's sealed frame, nil when sealing failed; empty is a
	// delta that carries nothing, whose frame the job has already released.
	frame *protocol.Frame
	empty bool
}

// NewReplicator creates a replicator over store.
func NewReplicator(store *Store, cfg ReplConfig) *Replicator {
	return &Replicator{
		store:   store,
		cfg:     cfg,
		peers:   make(map[string]*peerState),
		refused: make([][]protocol.ParticipantID, cfg.Pool.Workers()),
	}
}

// AddPeer registers a downstream peer gated by filter, which may be nil (e.g.
// the peer is another authoritative server needing everything). It adapts
// filter for AddPeerRefusing: one pass over the store's live entities a build.
func (r *Replicator) AddPeer(id string, filter FilterFunc) error {
	var refused RefusedFunc
	if filter != nil {
		refused = func(tick uint64, dst []protocol.ParticipantID) []protocol.ParticipantID {
			for _, is := range r.store.ordered() {
				if !filter(is.id, tick) {
					dst = append(dst, is.id)
				}
			}
			return dst
		}
	}
	return r.AddPeerRefusing(id, refused)
}

// AddPeerRefusing registers a downstream peer whose interest is asked once per
// build (nil refuses nothing).
func (r *Replicator) AddPeerRefusing(id string, refused RefusedFunc) error {
	if _, ok := r.peers[id]; ok {
		return fmt.Errorf("%w: %s", ErrPeerExists, id)
	}
	var p *peerState
	if n := len(r.freePeers); n > 0 {
		p = r.freePeers[n-1]
		r.freePeers[n-1] = nil
		r.freePeers = r.freePeers[:n-1]
	} else {
		p = &peerState{}
	}
	p.refused = refused
	r.peers[id] = p
	r.idsDirty = true
	return nil
}

// RemovePeer unregisters a peer. Its state returns to the replicator's pool
// (scratch capacity intact) so the next AddPeer is
// allocation-free; the departing peer's ack baseline and interest are cleared.
func (r *Replicator) RemovePeer(id string) error {
	p, ok := r.peers[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownPeer, id)
	}
	delete(r.peers, id)
	p.reset()
	r.freePeers = append(r.freePeers, p)
	r.idsDirty = true
	// A departure can leave the removal log pinned to the departed peer's
	// baseline; re-evaluate the prune floor at the next PlanTick.
	r.pruneDirty = true
	return nil
}

// HasPeer reports whether id is registered.
func (r *Replicator) HasPeer(id string) bool {
	_, ok := r.peers[id]
	return ok
}

// sortedPeerIDs returns the cached sorted peer-ID slice, rebuilding it only
// after membership changes.
func (r *Replicator) sortedPeerIDs() []string {
	if r.idsDirty {
		r.sortedIDs = r.sortedIDs[:0]
		for id := range r.peers {
			r.sortedIDs = append(r.sortedIDs, id)
		}
		sort.Strings(r.sortedIDs)
		r.idsDirty = false
	}
	return r.sortedIDs
}

// Peers returns registered peer IDs, sorted. Each call allocates a fresh
// slice; hot paths should use PeersAppend with a reused buffer instead.
func (r *Replicator) Peers() []string {
	return r.PeersAppend(nil)
}

// PeersAppend appends the registered peer IDs, sorted, to dst and returns
// the extended slice. With a reused dst it allocates nothing, so per-tick
// peer sweeps stay allocation-flat.
func (r *Replicator) PeersAppend(dst []string) []string {
	return append(dst, r.sortedPeerIDs()...)
}

// Ack records that peer applied the message planned at tick and moves the
// peer's delta baseline to what the send log says that proves: to tick when
// no unacked delta with an older base was skipped on the way, otherwise back
// to the oldest skipped base — possibly BELOW where the baseline stood — so
// the next delta re-covers a window that may have died in flight (resolveAck
// has the reasoning). A spurious regression from mere ack reorder costs only
// redundant delta content: deltas carry latest state, so re-applying them
// never rolls a replica back.
//
// An ack at or below the newest tick already acked never moves the baseline:
// the log is resolved through that tick, so nothing says what such an ack
// proves. It matters because a replica re-acks its current tick whenever a
// delayed delta reaches it stale — right after the ack that skipped that
// delta regressed the baseline — and honoring the duplicate would undo the
// repair with the delta's content never applied. Only an ack that raises the
// baseline can raise the prune floor, so ignored acks schedule no prune scan.
func (r *Replicator) Ack(peer string, tick uint64) error {
	p, ok := r.peers[peer]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownPeer, peer)
	}
	// Receipt is receipt regardless of ordering: even a regressed ack proves
	// the tick's message arrived, settling any owed entities it carried. The
	// settling itself waits for the peer's next build (OwedSet.AckDrop).
	p.owed.AckDrop(tick)
	if tick <= p.newestAck {
		return nil
	}
	p.newestAck = tick
	floor, repair := p.resolveAck(tick)
	switch {
	case !p.acked || floor > p.ackTick:
		p.ackTick = floor
		p.acked = true
		r.pruneDirty = true
	case repair && floor < p.ackTick:
		p.ackTick = floor
	}
	return nil
}

// prune trims the store's removal log below the minimum acked tick. It runs
// lazily — once per PlanTick after any Ack — so a tick where every peer acks
// costs one O(peers) scan, not one per Ack. Deferral never changes emitted
// deltas: prunable entries are at or below every peer's baseline, so no
// DeltaSince call could have included them anyway.
func (r *Replicator) prune() {
	if !r.pruneDirty {
		return
	}
	r.pruneDirty = false
	min := r.store.Tick()
	for _, p := range r.peers {
		if !p.acked {
			return // an un-acked peer pins the whole log until its snapshot
		}
		if p.ackTick < min {
			min = p.ackTick
		}
	}
	if min > r.prunedTo {
		r.prunedTo = min
	}
	r.store.PruneRemovals(min)
}

// PeerBaseline is one peer's portable replication position: its delta
// baseline (ack floor) plus the owed-set debt — the entities whose latest
// change the exporter's filter suppressed and the peer has not acknowledged.
// It is what session handoff carries between relays so the importer resumes
// exactly where the exporter stopped instead of opening with a full snapshot.
type PeerBaseline struct {
	AckTick uint64
	Acked   bool
	// Owed lists the owed entity IDs ascending. The exporter's in-flight
	// "sent but unacked" records are flattened back to owed-unsent debt:
	// the frames carrying them may die with the old link, so the importer
	// must treat them as undelivered.
	Owed []protocol.ParticipantID
}

// ExportBaseline captures peer's replication position for handoff. The
// returned slices are freshly allocated (handoff is off the per-tick hot
// path); the peer's live state is not modified, so export can precede the
// RemovePeer that retires the old route.
func (r *Replicator) ExportBaseline(peer string) (PeerBaseline, error) {
	p, ok := r.peers[peer]
	if !ok {
		return PeerBaseline{}, fmt.Errorf("%w: %s", ErrUnknownPeer, peer)
	}
	return PeerBaseline{AckTick: p.ackTick, Acked: p.acked, Owed: p.owed.ids(r.store)}, nil
}

// ImportBaseline seeds peer's replication position from a baseline exported
// on another node. The ack floor is honored only when this replicator's
// history provably covers it: the floor must lie between the removal-log
// prune horizon and the current store tick, within maxDeltaWindow. Anything
// else — a floor under pruned removals, a floor ahead of a lagging mirror,
// a floor too old to delta from — falls back to unacked, so the next
// PlanTick opens with a full snapshot (correct, just not incremental).
//
// Owed IDs are re-marked as owed-unsent debt on the importing peer, filtered
// or not; the owed sweep re-sends them once they sit settled. Tick domains
// are node-local, so an owed ID whose entity is absent here is marked anyway:
// the peer's next build keeps the debt if the entity has arrived by then and
// forgets it otherwise.
func (r *Replicator) ImportBaseline(peer string, b PeerBaseline) error {
	p, ok := r.peers[peer]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownPeer, peer)
	}
	tick := r.store.Tick()
	coversFloor := b.Acked && b.AckTick >= r.prunedTo && b.AckTick <= tick &&
		tick-b.AckTick <= maxDeltaWindow
	if coversFloor {
		p.ackTick, p.acked = b.AckTick, true
		r.pruneDirty = true
	} else {
		p.ackTick, p.acked = 0, false
	}
	for _, id := range b.Owed {
		p.owed.markID(r.store, id)
	}
	// The send log describes the exporter's traffic; whatever of it was in
	// flight died with the old route, and this node's sends start fresh.
	p.sent = p.sent[:0]
	return nil
}

// Owe records entity id as owed-unsent debt to peer, (re)opening
// the debt even if a send was already in flight. Handoff uses it to mark
// state the importing node cannot prove delivered — tick domains are
// node-local, so the transferred floor covers the exporter's history, not
// content skew between the two stores. The owed sweep then converges exactly
// the entities whose delta walk never surfaces them.
func (r *Replicator) Owe(peer string, id protocol.ParticipantID) error {
	p, ok := r.peers[peer]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownPeer, peer)
	}
	p.owed.markID(r.store, id)
	return nil
}

// PeerMessage is one planned transmission: the framed Snapshot or Delta
// built for Peer. Msg holds the frame's one reference, nil when the message
// could not be framed (it exceeds protocol.MaxPayload). Whoever sends the
// frame takes that reference and zeroes the entry (Dispatcher.Fanout);
// a frame still in the plan at the next PlanTick or at ReleasePlan is
// released there.
type PeerMessage struct {
	Peer string
	Msg  *protocol.Frame
}

// PlanTick builds the replication message for every peer at the store's
// current tick. Peers receive a Snapshot when they have never acked or their
// ack is older than maxDeltaWindow; otherwise a Delta since their ack. Peers with nothing to send (empty
// delta) are skipped. Every peer's message is gated by its interest, asked
// once per build (nil refuses nothing), and settles its owed set.
//
// The returned slice is valid until the next PlanTick call, which first
// releases every frame of it no one has taken (ReleasePlan).
//
// The plan runs in three passes:
//
//	1 (owner) walk sorted peers, decide snapshot-vs-delta, and queue one
//	          build job per peer.
//	2 (pool)  encode each entity written since the last plan once, on the
//	          owner, then execute the jobs on ReplConfig.Pool. Each job
//	          settles its peer's queued acks, copies wire bytes into a pooled
//	          frame and seals it, writing only its own job, its peer's owed
//	          set and its worker's refused list; the store is read-only and
//	          its lazy walk order is warmed before the fan-out.
//	3 (owner) walk the jobs in order, dropping empty deltas and bumping the
//	          per-peer counters.
//
// Because pass 3 counts in sorted-peer order over prebuilt frames, the
// returned plan — ordering, frame bytes, counters — does not depend on the
// worker count or on the order the pool scheduled the jobs in.
func (r *Replicator) PlanTick() []PeerMessage {
	r.ReleasePlan()
	tick := r.store.Tick()
	r.prune()

	// Pass 1: queue one build per peer.
	jobs := r.jobs[:0]
	for _, id := range r.sortedPeerIDs() {
		p := r.peers[id]
		jobs = append(jobs, planJob{id: id, peer: p, snap: r.wantSnapshot(p, tick)})
	}
	r.jobs = jobs

	// Pass 2: encode what was written since the last plan, once for every
	// peer (none, if there is no peer), then execute the builds on the pool.
	// The encode also warms the walk order, so concurrent scans only read it.
	if len(jobs) > 0 {
		r.store.encodeChanged()
	}
	if r.runJob == nil {
		r.runJob = r.execJob
	}
	r.cfg.Pool.Run(len(jobs), r.runJob)

	// Pass 3: merge in sorted-peer order.
	out := r.plan[:0]
	for i := range jobs {
		j := &jobs[i]
		if j.empty {
			continue
		}
		p := j.peer
		if j.snap {
			p.snapshots++
		} else {
			p.deltas++
		}
		p.noteSent(tick, p.ackTick, j.snap)
		out = append(out, PeerMessage{Peer: j.id, Msg: j.frame})
		j.frame = nil
	}
	r.plan = out
	return out
}

// ReleasePlan releases every frame of the last plan that no sender has
// taken, and empties its entries. PlanTick calls it first; a node calls it
// when it stops, so a plan that is never fanned out holds no frame.
func (r *Replicator) ReleasePlan() {
	for i := range r.plan {
		if f := r.plan[i].Msg; f != nil {
			f.Release()
		}
		r.plan[i] = PeerMessage{}
	}
}

// wantSnapshot is the snapshot-vs-delta decision for one peer at tick.
func (r *Replicator) wantSnapshot(p *peerState, tick uint64) bool {
	return !p.acked || tick-p.ackTick > maxDeltaWindow
}

// execJob runs one build of pass 2, asking the peer's interest once into its
// worker's refused list. It writes only that list, its own job, the frame it
// acquires and its peer's owed set, honoring the pool's ownership rules (see
// package work).
func (r *Replicator) execJob(w, i int) {
	j := &r.jobs[i]
	p := j.peer
	refused := r.refused[w][:0]
	if p.refused != nil {
		refused = p.refused(r.store.Tick(), refused)
		r.refused[w] = refused
	}
	f := protocol.AcquireBody()
	var err error
	if j.snap {
		err = r.store.SnapshotOwedInto(refused, f, &p.owed)
	} else {
		j.empty, err = r.store.DeltaSinceOwedInto(p.ackTick, refused, f, &p.owed, owedSettleTicks)
	}
	if err != nil || j.empty {
		f.Release()
		f = nil
	}
	j.frame = f
}

// PeerStats reports replication counters for a peer.
type PeerStats struct {
	AckTick   uint64
	Acked     bool
	Snapshots uint64
	Deltas    uint64
	// Owed is the number of entities the peer owes debt on — a change its
	// filter suppressed, or a handoff mark — that it has not yet acknowledged
	// receiving.
	Owed int
}

// StatsOf returns counters for one peer.
func (r *Replicator) StatsOf(peer string) (PeerStats, error) {
	p, ok := r.peers[peer]
	if !ok {
		return PeerStats{}, fmt.Errorf("%w: %s", ErrUnknownPeer, peer)
	}
	return PeerStats{AckTick: p.ackTick, Acked: p.acked, Snapshots: p.snapshots, Deltas: p.deltas, Owed: p.owed.Len(r.store)}, nil
}
