package video

import (
	"math"
	"time"
)

// The synthetic lecture-video encoder follows standard streaming practice:
// constant FPS, a GOP structure of one keyframe followed by delta frames,
// keyframes ~5x the mean delta size, and quality a saturating function of
// bitrate (rate-distortion).
const (
	fps = 30 // frames per second
	gop = 30 // keyframe interval in frames: one a second
	// startBitrateBps is a new encoder's target: 720p lecture capture.
	startBitrateBps = 2e6
)

// keyframeWeight is the size ratio of keyframes to delta frames.
const keyframeWeight = 5.0

// Frame is one encoded video frame.
type Frame struct {
	ID         uint32
	Keyframe   bool
	CapturedAt time.Duration
	Data       []byte
}

// Encoder produces synthetic frames whose sizes realize its target bitrate
// with the GOP structure. Frame payloads are deterministic filler (the sync
// system treats them as opaque), sized so that bandwidth and FEC behavior
// match a real encoder's output.
type Encoder struct {
	// bitrateBps is the target video bitrate in bits per second; the
	// adaptive controller moves it between frames.
	bitrateBps float64
	next       uint32
}

// NewEncoder creates an encoder targeting 2 Mbps.
func NewEncoder() *Encoder { return &Encoder{bitrateBps: startBitrateBps} }

// frame sizes: per GOP of g frames, 1 keyframe of weight w and g-1 deltas of
// weight 1 must sum to bitrate/fps*g bits. delta = total / (w + g - 1).
func (e *Encoder) deltaSize() int {
	bytesPerGOP := e.bitrateBps / 8 / fps * gop
	d := bytesPerGOP / (keyframeWeight + gop - 1)
	if d < 64 {
		d = 64
	}
	return int(d)
}

// NextFrame produces the frame captured at now.
func (e *Encoder) NextFrame(now time.Duration) Frame {
	id := e.next
	e.next++
	key := id%gop == 0
	size := e.deltaSize()
	if key {
		size = int(float64(size) * keyframeWeight)
	}
	data := make([]byte, size)
	// Deterministic filler derived from the frame ID (compressible streams
	// are irrelevant here; FEC operates on opaque bytes).
	seed := byte(id)
	for i := range data {
		data[i] = seed + byte(i)
	}
	return Frame{ID: id, Keyframe: key, CapturedAt: now, Data: data}
}

// Quality maps a bitrate to normalized delivered quality in [0,1] via a
// saturating rate-distortion curve calibrated so 2 Mbps ≈ 0.86 and 6 Mbps ≈
// 0.98 for lecture content.
func Quality(bitrateBps float64) float64 {
	if bitrateBps <= 0 {
		return 0
	}
	return 1 - math.Exp(-bitrateBps/1e6)
}

// BitrateLadder returns the standard step-down encodings the adaptive
// controller may pick from, descending.
func BitrateLadder() []float64 {
	return []float64{6e6, 4e6, 2.5e6, 1.5e6, 1e6, 0.6e6, 0.3e6}
}
