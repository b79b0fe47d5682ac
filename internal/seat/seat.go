// Package seat implements the receiving edge server's seat-mapping step from
// the paper's Fig. 3: "The edge server in Classroom 2 identifies the vacant
// seats to display virtual avatars in the MR classroom. Upon the reception
// of the digital information, it corrects the pose to match the new position
// of the avatar."
//
// A Map is a classroom's seating grid and the one record of its seating; the
// cloud's VR classroom and every campus edge own one. Local (physical)
// participants occupy seats; remote avatars are allocated vacant ones. Each
// assignment yields a rigid Correction transform that maps poses expressed
// in the sender's classroom frame into the local seat frame, so a remote
// learner who leans left in Guangzhou leans left in their Clear Water Bay
// seat; the map keeps it with the seat. A remote participant who finds no
// vacant seat stands: the map records them with the identity correction.
package seat

import (
	"errors"
	"fmt"

	"metaclass/internal/mathx"
	"metaclass/internal/pose"
	"metaclass/internal/protocol"
)

// Seat map errors.
var (
	ErrNoVacancy  = errors.New("seat: no vacant seat")
	ErrBadSeat    = errors.New("seat: seat index out of range")
	ErrOccupied   = errors.New("seat: seat already occupied")
	ErrNotSeated  = errors.New("seat: participant has no seat")
	ErrDuplicated = errors.New("seat: participant already seated")
)

// MaxSeats is the most seats a grid can number: Seat.Index is a uint16.
const MaxSeats = 1 << 16

// Seat is one position in a classroom.
type Seat struct {
	Index uint16
	// Position is the seat anchor (floor point) in classroom coordinates.
	Position mathx.Vec3
	// FacingYaw is the direction a seated person faces (radians; 0 = +Z,
	// toward the lectern by construction).
	FacingYaw float64
}

// Map is a classroom's seat inventory and the one record of who sits where:
// each seat carries its occupant, and each placed participant one value
// entry holding its seat (or standing) and its pose correction. Not safe for
// concurrent use; the cloud's VR classroom and every edge server own one.
type Map struct {
	classroom protocol.ClassroomID
	seats     []place
	placed    map[protocol.ParticipantID]placement
	occupied  int
}

// place is a seat and its occupant.
type place struct {
	Seat
	occupant protocol.ParticipantID
	taken    bool
}

// placement is one participant's record: the seat it holds, or standing
// room (no seat, identity correction) when none was vacant.
type placement struct {
	correction mathx.Transform
	seat       uint16
	seated     bool
}

// NewGrid builds a rows x cols seating grid with the given pitch (meters
// between seats), centered on X, starting at z = 2 m from the lectern at the
// origin, all seats facing the lectern (-Z direction toward origin).
func NewGrid(classroom protocol.ClassroomID, rows, cols int, pitch float64) *Map {
	if rows < 1 {
		rows = 1
	}
	if cols < 1 {
		cols = 1
	}
	if pitch <= 0 {
		pitch = 1.0
	}
	m := &Map{
		classroom: classroom,
		seats:     make([]place, 0, rows*cols),
		placed:    make(map[protocol.ParticipantID]placement),
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			x := (float64(c) - float64(cols-1)/2) * pitch
			z := 2 + float64(r)*pitch
			m.seats = append(m.seats, place{Seat: Seat{
				Index:    uint16(len(m.seats)),
				Position: mathx.V3(x, 0, z),
				// Face the lectern at the origin: heading is -Z, i.e. yaw pi.
				FacingYaw: 3.14159265358979,
			}})
		}
	}
	return m
}

// Classroom returns the owning classroom ID.
func (m *Map) Classroom() protocol.ClassroomID { return m.classroom }

// Total returns the seat count.
func (m *Map) Total() int { return len(m.seats) }

// Vacant returns the number of unoccupied seats.
func (m *Map) Vacant() int { return len(m.seats) - m.occupied }

// SeatAt returns the seat with the given index.
func (m *Map) SeatAt(idx uint16) (Seat, error) {
	if int(idx) >= len(m.seats) {
		return Seat{}, fmt.Errorf("%w: %d of %d", ErrBadSeat, idx, len(m.seats))
	}
	return m.seats[idx].Seat, nil
}

// Occupy marks a specific seat as taken by a local participant, whose poses
// need no correction.
func (m *Map) Occupy(idx uint16, p protocol.ParticipantID) error {
	if int(idx) >= len(m.seats) {
		return fmt.Errorf("%w: %d of %d", ErrBadSeat, idx, len(m.seats))
	}
	if st := m.seats[idx]; st.taken {
		return fmt.Errorf("%w: seat %d held by %d", ErrOccupied, idx, st.occupant)
	}
	if _, ok := m.placed[p]; ok {
		return fmt.Errorf("%w: participant %d", ErrDuplicated, p)
	}
	m.sit(idx, p, mathx.TransformIdentity())
	return nil
}

// sit records p in seat idx with the given pose correction.
func (m *Map) sit(idx uint16, p protocol.ParticipantID, c mathx.Transform) {
	m.seats[idx].occupant, m.seats[idx].taken = p, true
	m.occupied++
	m.placed[p] = placement{correction: c, seat: idx, seated: true}
}

// Release forgets the participant's placement, freeing the seat it holds.
func (m *Map) Release(p protocol.ParticipantID) error {
	pl, ok := m.placed[p]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNotSeated, p)
	}
	delete(m.placed, p)
	if pl.seated {
		m.seats[pl.seat].taken = false
		m.occupied--
	}
	return nil
}

// SeatOf returns the participant's assigned seat index; a standing
// participant has none.
func (m *Map) SeatOf(p protocol.ParticipantID) (uint16, bool) {
	pl := m.placed[p]
	return pl.seat, pl.seated
}

// Placement returns a placed participant's pose correction and seat index
// (0 when standing); ok is false for a participant the map has not placed.
func (m *Map) Placement(p protocol.ParticipantID) (correction mathx.Transform, seat uint16, ok bool) {
	pl, ok := m.placed[p]
	return pl.correction, pl.seat, ok
}

// Assignment is the result of placing a remote avatar into a local seat.
type Assignment struct {
	Seat Seat
	// Correction maps poses from the remote participant's source frame
	// (their anchor pose in their home classroom) to the local seat frame.
	Correction mathx.Transform
}

// AssignVacant places remote participant p, whose home-frame anchor pose is
// (srcPos, srcYaw), into the nearest vacant seat to preferred (pass the
// lectern-relative spot the sender occupied to preserve classroom geometry;
// zero value means "any"). It computes and records the pose-correction
// transform. With no seat vacant, p stands: it is recorded with the identity
// correction and no seat, and the error is ErrNoVacancy.
func (m *Map) AssignVacant(p protocol.ParticipantID, srcPos mathx.Vec3, srcYaw float64, preferred mathx.Vec3) (Assignment, error) {
	if _, ok := m.placed[p]; ok {
		return Assignment{}, fmt.Errorf("%w: participant %d", ErrDuplicated, p)
	}
	best := -1
	bestDist := 0.0
	for i := range m.seats {
		if m.seats[i].taken {
			continue
		}
		d := m.seats[i].Position.Dist(preferred)
		if best == -1 || d < bestDist {
			best, bestDist = i, d
		}
	}
	if best == -1 {
		m.placed[p] = placement{correction: mathx.TransformIdentity()}
		return Assignment{}, ErrNoVacancy
	}
	st := m.seats[best].Seat
	asg := Assignment{Seat: st, Correction: Correction(srcPos, srcYaw, st)}
	m.sit(st.Index, p, asg.Correction)
	return asg, nil
}

// Correction builds the rigid transform taking poses around the source
// anchor (srcPos, srcYaw) into the destination seat's frame: first express
// motion relative to the source anchor, then re-anchor at the seat with the
// seat's facing.
func Correction(srcPos mathx.Vec3, srcYaw float64, dst Seat) mathx.Transform {
	src := mathx.Transform{
		Rot:   mathx.QuatAxisAngle(mathx.V3(0, 1, 0), srcYaw),
		Trans: srcPos,
	}
	dstT := mathx.Transform{
		Rot:   mathx.QuatAxisAngle(mathx.V3(0, 1, 0), dst.FacingYaw),
		Trans: dst.Position,
	}
	return dstT.Compose(src.Inverse())
}

// ApplyCorrection maps a pose through an assignment's correction transform,
// preserving velocity direction in the new frame.
func ApplyCorrection(c mathx.Transform, p pose.Pose) pose.Pose {
	out := p
	out.Position = c.Apply(p.Position)
	out.Rotation = c.ApplyRot(p.Rotation)
	out.Velocity = c.Rot.Rotate(p.Velocity)
	return out
}

// VacantIndices returns the indices of vacant seats, ascending: seats are
// numbered by their position in the grid.
func (m *Map) VacantIndices() []uint16 {
	out := make([]uint16, 0, m.Vacant())
	for i := range m.seats {
		if !m.seats[i].taken {
			out = append(out, m.seats[i].Index)
		}
	}
	return out
}
