package avatar

import "testing"

func TestLoDLadderMonotone(t *testing.T) {
	lods := LoDs()
	if len(lods) != int(lodCount) {
		t.Fatalf("LoDs() = %d levels", len(lods))
	}
	for i := 1; i < len(lods); i++ {
		if lods[i].Triangles() <= lods[i-1].Triangles() {
			t.Errorf("triangles not increasing at %v", lods[i])
		}
		if lods[i].TextureKB() <= lods[i-1].TextureKB() {
			t.Errorf("textures not increasing at %v", lods[i])
		}
	}
}

func TestLoDNamesAndValidity(t *testing.T) {
	seen := map[string]bool{}
	for _, l := range LoDs() {
		if !l.Valid() {
			t.Errorf("%v invalid", l)
		}
		if seen[l.String()] {
			t.Errorf("duplicate name %v", l)
		}
		seen[l.String()] = true
	}
	bad := LoD(200)
	if bad.Valid() || bad.Triangles() != 0 || bad.TextureKB() != 0 {
		t.Error("invalid LoD leaks data")
	}
}

func TestLoDForDistance(t *testing.T) {
	tests := []struct {
		d    float64
		want LoD
	}{
		{0.5, LoDHigh}, {3, LoDMedium}, {8, LoDLow}, {50, LoDImpostor},
	}
	for _, tt := range tests {
		if got := LoDForDistance(tt.d); got != tt.want {
			t.Errorf("LoDForDistance(%v) = %v, want %v", tt.d, got, tt.want)
		}
	}
	// Monotone: farther never yields finer.
	prev := MaxLoD
	for d := 0.0; d < 100; d += 0.5 {
		l := LoDForDistance(d)
		if l > prev {
			t.Fatalf("LoD increased with distance at %v", d)
		}
		prev = l
	}
}
