// Package expression models facial expression state for avatars: a compact
// blendshape weight vector captured by MR headsets (the paper's Fig. 3
// tracks "facial expressions" alongside pose), quantized for the wire.
package expression

import (
	"fmt"
	"math"
)

// Channel enumerates the tracked blendshape channels — the subset of ARKit-
// style shapes recoverable by headset-mounted cameras.
type Channel uint8

// Blendshape channels.
const (
	ChanSmile Channel = iota
	ChanFrown
	ChanBrowUp
	ChanBrowDown
	ChanJawOpen
	ChanEyeBlinkL
	ChanEyeBlinkR
	ChanMouthPucker
	ChanCheekPuff
	ChanEyeWideL
	ChanEyeWideR
	ChanNoseSneer
	ChannelCount // sentinel
)

var channelNames = [ChannelCount]string{
	"smile", "frown", "brow_up", "brow_down", "jaw_open",
	"blink_l", "blink_r", "pucker", "cheek_puff",
	"eye_wide_l", "eye_wide_r", "sneer",
}

// String implements fmt.Stringer.
func (c Channel) String() string {
	if c < ChannelCount {
		return channelNames[c]
	}
	return fmt.Sprintf("Channel(%d)", uint8(c))
}

// Expression is a weight vector, one weight in [0,1] per channel.
type Expression struct {
	Weights [ChannelCount]float64
}

// Neutral returns the all-zero expression.
func Neutral() Expression { return Expression{} }

// Preset builds common classroom expressions for simulation workloads.
type Preset uint8

// Presets.
const (
	PresetNeutral Preset = iota
	PresetSmile
	PresetConfused
	PresetSurprised
	PresetSpeaking
	presetCount
)

// Make returns the expression for a preset.
func (p Preset) Make() Expression {
	var e Expression
	switch p {
	case PresetSmile:
		e.Weights[ChanSmile] = 0.9
		e.Weights[ChanBrowUp] = 0.2
	case PresetConfused:
		e.Weights[ChanFrown] = 0.5
		e.Weights[ChanBrowDown] = 0.7
	case PresetSurprised:
		e.Weights[ChanBrowUp] = 0.9
		e.Weights[ChanJawOpen] = 0.6
		e.Weights[ChanEyeWideL] = 0.8
		e.Weights[ChanEyeWideR] = 0.8
	case PresetSpeaking:
		e.Weights[ChanJawOpen] = 0.4
	}
	return e
}

// Clamp returns e with every weight clamped to [0,1].
func (e Expression) Clamp() Expression {
	for i, w := range e.Weights {
		if w < 0 {
			e.Weights[i] = 0
		} else if w > 1 {
			e.Weights[i] = 1
		}
	}
	return e
}

// Distance returns the mean absolute per-channel difference in [0,1].
func (e Expression) Distance(o Expression) float64 {
	var sum float64
	for i := range e.Weights {
		sum += math.Abs(e.Weights[i] - o.Weights[i])
	}
	return sum / float64(ChannelCount)
}

// Lerp interpolates toward o by t.
func (e Expression) Lerp(o Expression, t float64) Expression {
	var out Expression
	for i := range e.Weights {
		out.Weights[i] = e.Weights[i] + (o.Weights[i]-e.Weights[i])*t
	}
	return out
}

// Quantize packs the expression into one byte per channel for the wire.
func (e Expression) Quantize() []byte {
	out := make([]byte, ChannelCount)
	c := e.Clamp()
	for i, w := range c.Weights {
		out[i] = byte(w*255 + 0.5)
	}
	return out
}

// Dequantize unpacks a wire expression; short or long inputs are tolerated
// (missing channels stay zero, extras are ignored) so protocol versions can
// evolve the channel set.
func Dequantize(b []byte) Expression {
	var e Expression
	n := len(b)
	if n > int(ChannelCount) {
		n = int(ChannelCount)
	}
	for i := 0; i < n; i++ {
		e.Weights[i] = float64(b[i]) / 255
	}
	return e
}
