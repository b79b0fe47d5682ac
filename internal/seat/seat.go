// Package seat implements the receiving edge server's seat-mapping step from
// the paper's Fig. 3: "The edge server in Classroom 2 identifies the vacant
// seats to display virtual avatars in the MR classroom. Upon the reception
// of the digital information, it corrects the pose to match the new position
// of the avatar."
//
// A Map is a classroom's seating grid. Local (physical) participants occupy
// seats; remote avatars are allocated vacant ones. Each assignment yields a
// rigid Correction transform that maps poses expressed in the sender's
// classroom frame into the local seat frame, so a remote learner who leans
// left in Guangzhou leans left in their Clear Water Bay seat.
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

// Map is a classroom's seat inventory and occupancy. Not safe for concurrent
// use; each edge server owns one.
type Map struct {
	classroom protocol.ClassroomID
	seats     []Seat
	occupant  map[uint16]protocol.ParticipantID
	seatOf    map[protocol.ParticipantID]uint16
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
		occupant:  make(map[uint16]protocol.ParticipantID),
		seatOf:    make(map[protocol.ParticipantID]uint16),
	}
	idx := uint16(0)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			x := (float64(c) - float64(cols-1)/2) * pitch
			z := 2 + float64(r)*pitch
			m.seats = append(m.seats, Seat{
				Index:    idx,
				Position: mathx.V3(x, 0, z),
				// Face the lectern at the origin: heading is -Z, i.e. yaw pi.
				FacingYaw: 3.14159265358979,
			})
			idx++
		}
	}
	return m
}

// Classroom returns the owning classroom ID.
func (m *Map) Classroom() protocol.ClassroomID { return m.classroom }

// Total returns the seat count.
func (m *Map) Total() int { return len(m.seats) }

// Vacant returns the number of unoccupied seats.
func (m *Map) Vacant() int { return len(m.seats) - len(m.occupant) }

// SeatAt returns the seat with the given index.
func (m *Map) SeatAt(idx uint16) (Seat, error) {
	if int(idx) >= len(m.seats) {
		return Seat{}, fmt.Errorf("%w: %d of %d", ErrBadSeat, idx, len(m.seats))
	}
	return m.seats[idx], nil
}

// Occupy marks a specific seat as taken by a local participant.
func (m *Map) Occupy(idx uint16, p protocol.ParticipantID) error {
	if int(idx) >= len(m.seats) {
		return fmt.Errorf("%w: %d of %d", ErrBadSeat, idx, len(m.seats))
	}
	if holder, ok := m.occupant[idx]; ok {
		return fmt.Errorf("%w: seat %d held by %d", ErrOccupied, idx, holder)
	}
	if _, ok := m.seatOf[p]; ok {
		return fmt.Errorf("%w: participant %d", ErrDuplicated, p)
	}
	m.occupant[idx] = p
	m.seatOf[p] = idx
	return nil
}

// Release frees whatever seat the participant holds.
func (m *Map) Release(p protocol.ParticipantID) error {
	idx, ok := m.seatOf[p]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNotSeated, p)
	}
	delete(m.seatOf, p)
	delete(m.occupant, idx)
	return nil
}

// SeatOf returns the participant's assigned seat index.
func (m *Map) SeatOf(p protocol.ParticipantID) (uint16, bool) {
	idx, ok := m.seatOf[p]
	return idx, ok
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
// zero value means "any"). It computes the pose-correction transform.
func (m *Map) AssignVacant(p protocol.ParticipantID, srcPos mathx.Vec3, srcYaw float64, preferred mathx.Vec3) (Assignment, error) {
	if _, ok := m.seatOf[p]; ok {
		return Assignment{}, fmt.Errorf("%w: participant %d", ErrDuplicated, p)
	}
	best := -1
	bestDist := 0.0
	for i := range m.seats {
		if _, taken := m.occupant[m.seats[i].Index]; taken {
			continue
		}
		d := m.seats[i].Position.Dist(preferred)
		if best == -1 || d < bestDist {
			best, bestDist = i, d
		}
	}
	if best == -1 {
		return Assignment{}, ErrNoVacancy
	}
	st := m.seats[best]
	m.occupant[st.Index] = p
	m.seatOf[p] = st.Index
	return Assignment{Seat: st, Correction: Correction(srcPos, srcYaw, st)}, nil
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
		if _, taken := m.occupant[m.seats[i].Index]; !taken {
			out = append(out, m.seats[i].Index)
		}
	}
	return out
}
