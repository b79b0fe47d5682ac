// Package avatar models the digital twins that represent class participants
// across classrooms: their identity, geometric level-of-detail (LoD)
// ladder, and the complexity accounting the split-rendering decision (paper
// challenge C3: avatars "may be too complex to render with WebGL and
// lightweight VR headsets") is based on.
package avatar

import (
	"fmt"

	"metaclass/internal/protocol"
)

// LoD is a level of detail; lower is coarser.
type LoD uint8

// LoD ladder. Triangle counts follow common avatar pipelines: a billboard
// imposter, a mobile-grade mesh, a desktop mesh, and a photorealistic scan
// of the kind the paper expects from "pervasive sensing capabilities".
const (
	LoDImpostor LoD = iota
	LoDLow
	LoDMedium
	LoDHigh
	LoDPhotoreal
	lodCount
)

var lodSpecs = [lodCount]struct {
	name      string
	triangles int
	textureKB int
}{
	{"impostor", 2, 64},
	{"low", 5_000, 512},
	{"medium", 25_000, 2048},
	{"high", 100_000, 8192},
	{"photoreal", 500_000, 32768},
}

// String implements fmt.Stringer.
func (l LoD) String() string {
	if l < lodCount {
		return lodSpecs[l].name
	}
	return fmt.Sprintf("LoD(%d)", uint8(l))
}

// Valid reports whether l is on the ladder.
func (l LoD) Valid() bool { return l < lodCount }

// Triangles returns the mesh complexity at this LoD.
func (l LoD) Triangles() int {
	if !l.Valid() {
		return 0
	}
	return lodSpecs[l].triangles
}

// TextureKB returns the texture memory footprint at this LoD.
func (l LoD) TextureKB() int {
	if !l.Valid() {
		return 0
	}
	return lodSpecs[l].textureKB
}

// MaxLoD is the finest level.
const MaxLoD = LoDPhotoreal

// LoDs returns every level, coarse to fine.
func LoDs() []LoD {
	out := make([]LoD, lodCount)
	for i := range out {
		out[i] = LoD(i)
	}
	return out
}

// LoDForDistance picks a level by viewer distance (meters) — the standard
// distance-banded ladder receivers use when composing a classroom scene.
func LoDForDistance(d float64) LoD {
	switch {
	case d < 2:
		return LoDHigh
	case d < 5:
		return LoDMedium
	case d < 12:
		return LoDLow
	default:
		return LoDImpostor
	}
}

// Avatar is one participant's digital twin.
type Avatar struct {
	Participant protocol.ParticipantID
	Name        string
	Role        protocol.Role
	// Preferred is the finest LoD the participant's scan supports.
	Preferred LoD
	// Home is the classroom the participant is physically in (0 = remote).
	Home protocol.ClassroomID
}
