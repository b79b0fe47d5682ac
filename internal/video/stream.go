package video

import (
	"fmt"
	"time"

	"metaclass/internal/vclock"
)

// Strategy selects the loss-recovery scheme for a stream.
type Strategy uint8

// Recovery strategies (the E7 comparison set).
const (
	// StrategyARQ sends unprotected shards and retransmits on NACK.
	StrategyARQ Strategy = iota + 1
	// StrategyFEC sends a fixed parity overhead, no retransmission.
	StrategyFEC
	// StrategyAdaptive jointly adapts bitrate, parity and ARQ usage from
	// measured loss and RTT (the paper's preferred approach).
	StrategyAdaptive
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case StrategyARQ:
		return "arq"
	case StrategyFEC:
		return "fec"
	case StrategyAdaptive:
		return "adaptive"
	default:
		return fmt.Sprintf("Strategy(%d)", uint8(s))
	}
}

// StreamConfig parameterizes one video stream.
type StreamConfig struct {
	Strategy Strategy
	// R is the static parity count (StrategyFEC; default 2).
	R int
}

// streamID is the stream number a sender stamps on its chunks; a receiver
// and a sender refuse chunks and nacks of any other stream.
const streamID uint32 = 0

// dataShards is the data shard count per frame.
const dataShards = 8

// playoutDeadline is the playout deadline measured from capture:
// interactive lecture video.
const playoutDeadline = 150 * time.Millisecond

func (c *StreamConfig) applyDefaults() {
	if c.Strategy == 0 {
		c.Strategy = StrategyFEC
	}
	if c.R < 0 {
		c.R = 0
	} else if c.R == 0 {
		c.R = 2
	}
}

// Sender encodes frames, shards them (with parity per strategy) and hands
// Chunks to a transport callback. It retains shard bytes until the frame
// deadline so NACKs can be answered.
type Sender struct {
	sim  *vclock.Sim
	cfg  StreamConfig
	enc  *Encoder
	send func(*Chunk)

	rsCache map[int]*RS         // by parity count
	pending map[uint32][][]byte // frameID -> all shards, for ARQ
	parity  int                 // current parity count
	useARQ  bool
	cancel  func()

	framesSent  uint64
	chunksSent  uint64
	bytesSent   uint64
	retransmits uint64
}

// NewSender creates a sender delivering chunks through send.
func NewSender(sim *vclock.Sim, cfg StreamConfig, send func(*Chunk)) *Sender {
	cfg.applyDefaults()
	s := &Sender{
		sim: sim, cfg: cfg, enc: NewEncoder(), send: send,
		rsCache: make(map[int]*RS),
		pending: make(map[uint32][][]byte),
	}
	switch cfg.Strategy {
	case StrategyARQ:
		s.parity, s.useARQ = 0, true
	case StrategyFEC:
		s.parity, s.useARQ = cfg.R, false
	case StrategyAdaptive:
		// Start conservatively; ReportNetwork refines.
		s.parity, s.useARQ = cfg.R, false
	}
	return s
}

// Start begins frame emission on the simulation clock.
func (s *Sender) Start() {
	if s.cancel != nil {
		return
	}
	s.cancel = s.sim.Ticker(time.Second/fps, s.emitFrame)
}

// Stop halts emission.
func (s *Sender) Stop() {
	if s.cancel != nil {
		s.cancel()
		s.cancel = nil
	}
}

func (s *Sender) rs(r int) (*RS, error) {
	if rs, ok := s.rsCache[r]; ok {
		return rs, nil
	}
	rs, err := NewRS(dataShards, r)
	if err != nil {
		return nil, err
	}
	s.rsCache[r] = rs
	return rs, nil
}

func (s *Sender) emitFrame() {
	now := s.sim.Now()
	frame := s.enc.NextFrame(now)
	data, err := SplitFrame(frame.Data, dataShards)
	if err != nil {
		return // zero-length frame cannot happen with the encoder's floor
	}
	shards := data
	if s.parity > 0 {
		rs, err := s.rs(s.parity)
		if err != nil {
			return
		}
		shards, err = rs.Encode(data)
		if err != nil {
			return
		}
	}
	deadline := frame.CapturedAt + playoutDeadline
	for i, shard := range shards {
		s.chunksSent++
		s.bytesSent += uint64(len(shard))
		s.send(&Chunk{
			Stream:     streamID,
			FrameID:    frame.ID,
			GroupK:     uint8(dataShards),
			GroupR:     uint8(s.parity),
			ShardIndex: uint8(i),
			Keyframe:   frame.Keyframe,
			Deadline:   deadline,
			Data:       shard,
		})
	}
	s.framesSent++
	if s.useARQ {
		id := frame.ID
		s.pending[id] = shards
		// Forget the frame once its deadline passes; retransmits after that
		// are useless.
		s.sim.At(deadline, func() { delete(s.pending, id) })
	}
}

// HandleNack retransmits the requested shards if the frame is still alive.
func (s *Sender) HandleNack(n *Nack) {
	if n.Stream != streamID {
		return
	}
	shards, ok := s.pending[n.FrameID]
	if !ok {
		return
	}
	deadline := s.sim.Now() + playoutDeadline // conservative restamp
	for _, idx := range n.Missing {
		if int(idx) >= len(shards) {
			continue
		}
		s.retransmits++
		s.chunksSent++
		s.bytesSent += uint64(len(shards[idx]))
		s.send(&Chunk{
			Stream:     streamID,
			FrameID:    n.FrameID,
			GroupK:     uint8(dataShards),
			GroupR:     uint8(len(shards) - dataShards),
			ShardIndex: idx,
			Deadline:   deadline,
			Data:       shards[idx],
		})
	}
}

// ReportNetwork feeds measured network state to the adaptive controller
// (no-op for static strategies).
func (s *Sender) ReportNetwork(loss float64, rtt time.Duration) {
	if s.cfg.Strategy != StrategyAdaptive {
		return
	}
	plan := Controller{}.Decide(loss, rtt, playoutDeadline)
	s.parity = plan.Parity
	s.useARQ = plan.UseARQ
	s.enc.bitrateBps = plan.BitrateBps
}

// SenderStats reports sender-side accounting.
type SenderStats struct {
	FramesSent  uint64
	ChunksSent  uint64
	BytesSent   uint64
	Retransmits uint64
	Parity      int
	BitrateBps  float64
}

// Stats returns current counters.
func (s *Sender) Stats() SenderStats {
	return SenderStats{
		FramesSent: s.framesSent, ChunksSent: s.chunksSent, BytesSent: s.bytesSent,
		Retransmits: s.retransmits, Parity: s.parity, BitrateBps: s.enc.bitrateBps,
	}
}

// frameGroup tracks shard arrival for one frame at the receiver.
type frameGroup struct {
	k, r       int
	shards     [][]byte
	got        int
	complete   bool
	finalized  bool
	nacked     bool
	deadline   time.Duration
	capturedAt time.Duration
	keyframe   bool
}

// ReceiverStats is the receiver-side outcome accounting E7 reports.
type ReceiverStats struct {
	ChunksReceived uint64
	FramesOnTime   uint64
	FramesLate     uint64
	FramesLost     uint64
	FramesFEC      uint64 // frames that needed parity to complete
	NacksSent      uint64
	// LatencySum accumulates completion latencies of on-time frames.
	LatencySum time.Duration
}

// DeliveredRatio is on-time frames over all finalized frames.
func (r ReceiverStats) DeliveredRatio() float64 {
	total := r.FramesOnTime + r.FramesLate + r.FramesLost
	if total == 0 {
		return 0
	}
	return float64(r.FramesOnTime) / float64(total)
}

// Receiver reassembles frames from chunks, recovering erasures with parity
// and/or NACK-driven retransmission, and scores each frame against its
// playout deadline.
type Receiver struct {
	sim      *vclock.Sim
	cfg      StreamConfig
	sendNack func(*Nack)
	rsCache  map[[2]int]*RS
	groups   map[uint32]*frameGroup
	stats    ReceiverStats

	// nackDelay is the gap timer before declaring shards missing.
	nackDelay time.Duration
}

// NewReceiver creates a receiver. sendNack may be nil to disable ARQ.
func NewReceiver(sim *vclock.Sim, cfg StreamConfig, sendNack func(*Nack)) *Receiver {
	cfg.applyDefaults()
	return &Receiver{
		sim: sim, cfg: cfg, sendNack: sendNack,
		rsCache:   make(map[[2]int]*RS),
		groups:    make(map[uint32]*frameGroup),
		nackDelay: 20 * time.Millisecond,
	}
}

// HandleChunk ingests one arriving chunk.
func (r *Receiver) HandleChunk(c *Chunk) {
	if c.Stream != streamID {
		return
	}
	g, ok := r.groups[c.FrameID]
	if !ok {
		g = &frameGroup{
			k: int(c.GroupK), r: int(c.GroupR),
			shards:     make([][]byte, int(c.GroupK)+int(c.GroupR)),
			deadline:   c.Deadline,
			capturedAt: c.Deadline - playoutDeadline,
			keyframe:   c.Keyframe,
		}
		r.groups[c.FrameID] = g
		id := c.FrameID
		// Schedule the final verdict at the deadline...
		if c.Deadline > r.sim.Now() {
			r.sim.At(c.Deadline, func() { r.finalize(id) })
		} else {
			r.sim.After(0, func() { r.finalize(id) })
		}
		// ...and, if ARQ is available, a gap check shortly after first arrival.
		if r.sendNack != nil {
			r.sim.After(r.nackDelay, func() { r.maybeNack(id) })
		}
	}
	r.stats.ChunksReceived++
	idx := int(c.ShardIndex)
	if idx >= len(g.shards) || g.shards[idx] != nil || g.finalized {
		return // duplicate, stale, or malformed
	}
	g.shards[idx] = c.Data
	g.got++
	if !g.complete && g.got >= g.k {
		g.complete = true
		if r.sim.Now() <= g.deadline {
			r.stats.FramesOnTime++
			r.stats.LatencySum += r.sim.Now() - g.capturedAt
			needsParity := false
			for i := 0; i < g.k; i++ {
				if g.shards[i] == nil {
					needsParity = true
					break
				}
			}
			if needsParity {
				r.stats.FramesFEC++
				// Exercise the real decode path to keep the cost model honest.
				if rs, err := r.rs(g.k, g.r); err == nil {
					_, _ = rs.Reconstruct(g.shards)
				}
			}
		} else {
			r.stats.FramesLate++
		}
	}
}

func (r *Receiver) rs(k, rr int) (*RS, error) {
	key := [2]int{k, rr}
	if rs, ok := r.rsCache[key]; ok {
		return rs, nil
	}
	rs, err := NewRS(k, rr)
	if err != nil {
		return nil, err
	}
	r.rsCache[key] = rs
	return rs, nil
}

func (r *Receiver) maybeNack(id uint32) {
	g, ok := r.groups[id]
	if !ok || g.complete || g.finalized || g.nacked {
		return
	}
	var missing []byte
	for i := 0; i < g.k; i++ { // request data shards only
		if g.shards[i] == nil {
			missing = append(missing, byte(i))
		}
	}
	if len(missing) == 0 {
		return
	}
	g.nacked = true
	r.stats.NacksSent++
	r.sendNack(&Nack{Stream: streamID, FrameID: id, Missing: missing})
}

func (r *Receiver) finalize(id uint32) {
	g, ok := r.groups[id]
	if !ok || g.finalized {
		return
	}
	g.finalized = true
	if !g.complete {
		r.stats.FramesLost++
	}
	delete(r.groups, id)
}

// Stats returns receiver accounting. Frames still in flight are not counted.
func (r *Receiver) Stats() ReceiverStats { return r.stats }

// EstimatedLoss returns the chunk-loss estimate over everything seen so far,
// given the sender's chunk counter (harness wiring for the adaptive loop).
func EstimatedLoss(sent, received uint64) float64 {
	if sent == 0 {
		return 0
	}
	lost := float64(sent-received) / float64(sent)
	if lost < 0 {
		return 0
	}
	return lost
}
