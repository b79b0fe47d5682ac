package core

import (
	"metaclass/internal/protocol"
	"metaclass/internal/work"
)

// encodeFailed marks a cohort whose payload could not be encoded; it is
// only ever compared by pointer, never used as a frame.
var encodeFailed = &protocol.Frame{}

// FrameCache turns a PlanTick result into refcounted wire frames, encoding
// each distinct cohort payload exactly once per tick and handing the
// identical pooled frame to every cohort member with one reference per
// recipient. The cache itself holds one base reference per cohort frame,
// dropped at the next EncodePlan or Reset, so a frame's bytes live exactly
// as long as the slowest in-flight copy needs them and then return to the
// frame pool.
type FrameCache struct {
	// frames[c] is cohort c's frame (or encodeFailed) and msgs[c] its
	// payload while EncodePlan runs; fn is the hoisted job body, built once
	// so pool runs allocate nothing.
	frames []*protocol.Frame
	msgs   []protocol.Message
	fn     func(worker, i int)
}

// Reset releases the cache's base reference on every cohort frame and
// empties the table. EncodePlan does it for the previous tick; call it
// directly when the owning server stops (so the final tick's frames are not
// pinned forever).
func (c *FrameCache) Reset() {
	for i, f := range c.frames {
		if f != encodeFailed {
			f.Release()
		}
		c.frames[i] = nil
	}
	c.frames = c.frames[:0]
}

// EncodePlan drops the previous tick's frames and encodes every distinct
// cohort of plan on the pool's workers (inline on the caller for a nil pool,
// one worker, or one cohort); the in-order FrameFor walk that follows only
// retains. Cohort IDs are dense and ascend in first-use order (the
// PeerMessage contract), so the distinct cohorts are exactly the entries
// whose Cohort equals the number collected so far. Each job encodes into its
// own table slot; EncodeFrame itself is thread-safe (pooled frames, atomic
// refcounts). A cohort whose payload fails to encode gets the failure
// sentinel: FrameFor reports it as nil per recipient, and no frame reference
// leaks.
func (c *FrameCache) EncodePlan(plan []PeerMessage, pool *work.Pool) {
	c.Reset()
	for _, pm := range plan {
		if pm.Cohort == len(c.msgs) {
			c.msgs = append(c.msgs, pm.Msg)
			c.frames = append(c.frames, nil)
		}
	}
	if c.fn == nil {
		c.fn = c.encodeAt
	}
	pool.Run(len(c.msgs), c.fn)
	// Drop the payload references so plan messages are not pinned past the
	// tick (msgs is reused scratch).
	clear(c.msgs)
	c.msgs = c.msgs[:0]
}

// encodeAt encodes cohort i's payload into its slot.
func (c *FrameCache) encodeAt(_, i int) {
	f, err := protocol.EncodeFrame(c.msgs[i])
	if err != nil {
		f = encodeFailed
	}
	c.frames[i] = f
}

// FrameFor returns the frame EncodePlan encoded for pm's cohort, with one
// reference owned by the caller. The caller must consume that reference
// exactly once — normally by passing the frame to a transport's SendFrame,
// which releases it on every outcome. It returns nil when encoding failed
// (callers should count an encode error per affected peer, matching per-peer
// encoding semantics).
func (c *FrameCache) FrameFor(pm PeerMessage) *protocol.Frame {
	f := c.frames[pm.Cohort]
	if f == encodeFailed {
		return nil
	}
	f.Retain()
	return f
}
