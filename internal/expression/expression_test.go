package expression

import (
	"math"
	"testing"
	"testing/quick"
)

func TestChannelNames(t *testing.T) {
	seen := map[string]bool{}
	for c := Channel(0); c < ChannelCount; c++ {
		n := c.String()
		if n == "" || seen[n] {
			t.Errorf("bad/duplicate channel name %q", n)
		}
		seen[n] = true
	}
	if Channel(99).String() != "Channel(99)" {
		t.Error("unknown channel string")
	}
}

func TestPresetsDistinct(t *testing.T) {
	for p := PresetNeutral; p < presetCount; p++ {
		for q := p + 1; q < presetCount; q++ {
			if p.Make().Distance(q.Make()) == 0 {
				t.Errorf("presets %d and %d identical", p, q)
			}
		}
	}
}

func TestClamp(t *testing.T) {
	var e Expression
	e.Weights[ChanSmile] = 1.5
	e.Weights[ChanFrown] = -0.5
	c := e.Clamp()
	if c.Weights[ChanSmile] != 1 || c.Weights[ChanFrown] != 0 {
		t.Errorf("clamp = %v, %v", c.Weights[ChanSmile], c.Weights[ChanFrown])
	}
}

func TestQuantizeRoundTrip(t *testing.T) {
	f := func(raw [ChannelCount]uint8) bool {
		var e Expression
		for i, b := range raw {
			e.Weights[i] = float64(b) / 255
		}
		got := Dequantize(e.Quantize())
		return got.Distance(e) < 1.0/255
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDequantizeTolerant(t *testing.T) {
	short := Dequantize([]byte{255})
	if short.Weights[0] != 1 || short.Weights[1] != 0 {
		t.Error("short input mishandled")
	}
	long := make([]byte, ChannelCount+10)
	for i := range long {
		long[i] = 128
	}
	got := Dequantize(long)
	if math.Abs(got.Weights[ChannelCount-1]-128.0/255) > 1e-9 {
		t.Error("long input mishandled")
	}
}

func TestDistanceProperties(t *testing.T) {
	a, b := PresetSmile.Make(), PresetConfused.Make()
	if a.Distance(a) != 0 {
		t.Error("self distance nonzero")
	}
	if math.Abs(a.Distance(b)-b.Distance(a)) > 1e-12 {
		t.Error("distance asymmetric")
	}
}

func TestLerp(t *testing.T) {
	a, b := Neutral(), PresetSmile.Make()
	mid := a.Lerp(b, 0.5)
	if math.Abs(mid.Weights[ChanSmile]-0.45) > 1e-12 {
		t.Errorf("lerp smile = %v, want 0.45", mid.Weights[ChanSmile])
	}
}
