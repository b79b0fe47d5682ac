// Package session implements the educational activity layer of §III-A: the
// things participants *do* inside the synchronized classroom. It provides
// the three platform features the paper enumerates — (i) learning
// assessment in the Metaverse, (ii) interaction with presentations, and
// (iii) augmented teaching with 3D virtual entities — plus the interaction
// patterns it highlights: gamified task-based modules ("digital breakouts"),
// learner collaborations, and learner-driven activities.
//
// The Manager is the authoritative activity state machine hosted next to a
// sync server, and its log (Manager.Log) is the record of what happened in
// each activity.
package session

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"metaclass/internal/protocol"
)

// Session errors.
var (
	ErrNoActivity    = errors.New("session: unknown activity")
	ErrWrongState    = errors.New("session: activity in wrong state")
	ErrNotEnrolled   = errors.New("session: participant not enrolled")
	ErrAlreadyOpen   = errors.New("session: activity already open")
	ErrBadSubmission = errors.New("session: malformed submission")
)

// ActivityID identifies one activity within a session.
type ActivityID uint32

// State is an activity's lifecycle phase.
type State uint8

// Activity states.
const (
	StateDraft State = iota + 1
	StateOpen
	StateClosed
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateDraft:
		return "draft"
	case StateOpen:
		return "open"
	case StateClosed:
		return "closed"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Manager hosts the activities of one class session. Not safe for
// concurrent use; it lives on its server's simulation goroutine.
type Manager struct {
	next     ActivityID
	quizzes  map[ActivityID]*Quiz
	breakout map[ActivityID]*Breakout
	pres     map[ActivityID]*Presentation
	enrolled map[protocol.ParticipantID]protocol.Role
	log      []LogEntry
}

// LogEntry records one activity event for after-class analytics.
type LogEntry struct {
	At       time.Duration
	Activity ActivityID
	Kind     string
	Who      protocol.ParticipantID
}

// NewManager creates an empty session.
func NewManager() *Manager {
	return &Manager{
		next:     1,
		quizzes:  make(map[ActivityID]*Quiz),
		breakout: make(map[ActivityID]*Breakout),
		pres:     make(map[ActivityID]*Presentation),
		enrolled: make(map[protocol.ParticipantID]protocol.Role),
	}
}

// Enroll registers a participant with a role.
func (m *Manager) Enroll(id protocol.ParticipantID, role protocol.Role) {
	m.enrolled[id] = role
}

// Withdraw removes a participant.
func (m *Manager) Withdraw(id protocol.ParticipantID) { delete(m.enrolled, id) }

// Enrolled returns the number of enrolled participants.
func (m *Manager) Enrolled() int { return len(m.enrolled) }

func (m *Manager) emit(at time.Duration, a ActivityID, kind string, who protocol.ParticipantID) {
	m.log = append(m.log, LogEntry{At: at, Activity: a, Kind: kind, Who: who})
}

// Log returns the event log (copy).
func (m *Manager) Log() []LogEntry {
	out := make([]LogEntry, len(m.log))
	copy(out, m.log)
	return out
}

// --- (i) learning assessment: quizzes -------------------------------------

// Question is one multiple-choice quiz item.
type Question struct {
	Prompt  string
	Choices []string
	Answer  int // index into Choices
}

// Quiz is an in-Metaverse assessment.
type Quiz struct {
	ID        ActivityID
	Title     string
	Questions []Question
	state     State
	// answers[participant][question] = chosen index
	answers map[protocol.ParticipantID][]int
	openAt  time.Duration
	window  time.Duration
}

// CreateQuiz drafts a quiz. Questions are validated.
func (m *Manager) CreateQuiz(title string, qs []Question) (ActivityID, error) {
	if len(qs) == 0 {
		return 0, fmt.Errorf("%w: quiz needs questions", ErrBadSubmission)
	}
	for i, q := range qs {
		if len(q.Choices) < 2 || q.Answer < 0 || q.Answer >= len(q.Choices) {
			return 0, fmt.Errorf("%w: question %d invalid", ErrBadSubmission, i)
		}
	}
	id := m.next
	m.next++
	quiz := &Quiz{ID: id, Title: title, Questions: qs, state: StateDraft,
		answers: make(map[protocol.ParticipantID][]int)}
	m.quizzes[id] = quiz
	return id, nil
}

// OpenQuiz opens a quiz for answers during window.
func (m *Manager) OpenQuiz(at time.Duration, id ActivityID, window time.Duration) error {
	q, ok := m.quizzes[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoActivity, id)
	}
	if q.state != StateDraft {
		return fmt.Errorf("%w: quiz %d is %v", ErrAlreadyOpen, id, q.state)
	}
	q.state = StateOpen
	q.openAt = at
	q.window = window
	m.emit(at, id, "quiz.open", 0)
	return nil
}

// SubmitAnswer records participant p's answer to question qi.
func (m *Manager) SubmitAnswer(at time.Duration, id ActivityID, p protocol.ParticipantID, qi, choice int) error {
	q, ok := m.quizzes[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoActivity, id)
	}
	if q.state != StateOpen {
		return fmt.Errorf("%w: quiz %d is %v", ErrWrongState, id, q.state)
	}
	if q.window > 0 && at > q.openAt+q.window {
		return fmt.Errorf("%w: window closed", ErrWrongState)
	}
	if _, ok := m.enrolled[p]; !ok {
		return fmt.Errorf("%w: %d", ErrNotEnrolled, p)
	}
	if qi < 0 || qi >= len(q.Questions) {
		return fmt.Errorf("%w: question %d", ErrBadSubmission, qi)
	}
	if choice < 0 || choice >= len(q.Questions[qi].Choices) {
		return fmt.Errorf("%w: choice %d", ErrBadSubmission, choice)
	}
	ans := q.answers[p]
	if ans == nil {
		ans = make([]int, len(q.Questions))
		for i := range ans {
			ans[i] = -1
		}
	}
	ans[qi] = choice
	q.answers[p] = ans
	m.emit(at, id, "quiz.answer", p)
	return nil
}

// CloseQuiz ends the quiz and returns per-participant scores.
func (m *Manager) CloseQuiz(at time.Duration, id ActivityID) (map[protocol.ParticipantID]int, error) {
	q, ok := m.quizzes[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoActivity, id)
	}
	if q.state != StateOpen {
		return nil, fmt.Errorf("%w: quiz %d is %v", ErrWrongState, id, q.state)
	}
	q.state = StateClosed
	scores := make(map[protocol.ParticipantID]int, len(q.answers))
	for p, ans := range q.answers {
		s := 0
		for i, a := range ans {
			if a == q.Questions[i].Answer {
				s++
			}
		}
		scores[p] = s
	}
	m.emit(at, id, "quiz.close", 0)
	return scores, nil
}

// --- gamified learning: breakout puzzles -----------------------------------

// Breakout is a team "digital breakout": teams race to solve a sequence of
// puzzle stages; each stage unlocks the next.
type Breakout struct {
	ID     ActivityID
	Title  string
	Stages []string // stage solutions (opaque codes)
	state  State
	teams  map[string][]protocol.ParticipantID
	// progress[team] = stages solved
	progress map[string]int
	solvedAt map[string]time.Duration
}

// CreateBreakout drafts a breakout with the given stage solution codes.
func (m *Manager) CreateBreakout(title string, stages []string) (ActivityID, error) {
	if len(stages) == 0 {
		return 0, fmt.Errorf("%w: breakout needs stages", ErrBadSubmission)
	}
	id := m.next
	m.next++
	m.breakout[id] = &Breakout{
		ID: id, Title: title, Stages: stages, state: StateDraft,
		teams:    make(map[string][]protocol.ParticipantID),
		progress: make(map[string]int),
		solvedAt: make(map[string]time.Duration),
	}
	return id, nil
}

// FormTeam assigns members to a named team (learner collaboration).
func (m *Manager) FormTeam(id ActivityID, team string, members []protocol.ParticipantID) error {
	b, ok := m.breakout[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoActivity, id)
	}
	if b.state == StateClosed {
		return fmt.Errorf("%w: breakout closed", ErrWrongState)
	}
	for _, p := range members {
		if _, ok := m.enrolled[p]; !ok {
			return fmt.Errorf("%w: %d", ErrNotEnrolled, p)
		}
	}
	cp := make([]protocol.ParticipantID, len(members))
	copy(cp, members)
	b.teams[team] = cp
	return nil
}

// OpenBreakout starts the race.
func (m *Manager) OpenBreakout(at time.Duration, id ActivityID) error {
	b, ok := m.breakout[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoActivity, id)
	}
	if b.state != StateDraft {
		return fmt.Errorf("%w: breakout %d is %v", ErrAlreadyOpen, id, b.state)
	}
	if len(b.teams) == 0 {
		return fmt.Errorf("%w: no teams formed", ErrWrongState)
	}
	b.state = StateOpen
	m.emit(at, id, "breakout.open", 0)
	return nil
}

// AttemptStage lets a team member try a solution code for their team's
// current stage. It reports whether the attempt advanced the team and
// whether the team has now escaped (solved all stages).
func (m *Manager) AttemptStage(at time.Duration, id ActivityID, p protocol.ParticipantID, code string) (advanced, escaped bool, err error) {
	b, ok := m.breakout[id]
	if !ok {
		return false, false, fmt.Errorf("%w: %d", ErrNoActivity, id)
	}
	if b.state != StateOpen {
		return false, false, fmt.Errorf("%w: breakout %d is %v", ErrWrongState, id, b.state)
	}
	team := b.teamOf(p)
	if team == "" {
		return false, false, fmt.Errorf("%w: %d has no team", ErrNotEnrolled, p)
	}
	cur := b.progress[team]
	if cur >= len(b.Stages) {
		return false, true, nil // already escaped
	}
	if code != b.Stages[cur] {
		m.emit(at, id, "breakout.wrong", p)
		return false, false, nil
	}
	b.progress[team] = cur + 1
	m.emit(at, id, "breakout.solved", p)
	if b.progress[team] == len(b.Stages) {
		b.solvedAt[team] = at
		m.emit(at, id, "breakout.escaped", p)
		return true, true, nil
	}
	return true, false, nil
}

func (b *Breakout) teamOf(p protocol.ParticipantID) string {
	names := make([]string, 0, len(b.teams))
	for t := range b.teams {
		names = append(names, t)
	}
	sort.Strings(names)
	for _, t := range names {
		for _, m := range b.teams[t] {
			if m == p {
				return t
			}
		}
	}
	return ""
}

// Leaderboard returns teams ordered by progress (desc) then escape time
// (asc).
func (m *Manager) Leaderboard(id ActivityID) ([]TeamStanding, error) {
	b, ok := m.breakout[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoActivity, id)
	}
	out := make([]TeamStanding, 0, len(b.teams))
	for t := range b.teams {
		st := TeamStanding{Team: t, StagesSolved: b.progress[t]}
		if at, ok := b.solvedAt[t]; ok {
			st.EscapedAt = at
			st.Escaped = true
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].StagesSolved != out[j].StagesSolved {
			return out[i].StagesSolved > out[j].StagesSolved
		}
		if out[i].Escaped != out[j].Escaped {
			return out[i].Escaped
		}
		if out[i].Escaped && out[i].EscapedAt != out[j].EscapedAt {
			return out[i].EscapedAt < out[j].EscapedAt
		}
		return out[i].Team < out[j].Team
	})
	return out, nil
}

// TeamStanding is one leaderboard row.
type TeamStanding struct {
	Team         string
	StagesSolved int
	Escaped      bool
	EscapedAt    time.Duration
}

// --- (ii)+(iii) presentations & learner-driven activities ------------------

// Presentation is a slide deck shared into all classrooms; any participant
// the owner grants control can drive it (learner-driven "choose your own
// adventure" stories are presentations whose slides learners steer).
type Presentation struct {
	ID     ActivityID
	Owner  protocol.ParticipantID
	Title  string
	Slides int
	slide  int
	ctrl   map[protocol.ParticipantID]bool
}

// StartPresentation opens a deck with the owner in control.
func (m *Manager) StartPresentation(at time.Duration, owner protocol.ParticipantID, title string, slides int) (ActivityID, error) {
	if slides < 1 {
		return 0, fmt.Errorf("%w: deck needs slides", ErrBadSubmission)
	}
	if _, ok := m.enrolled[owner]; !ok {
		return 0, fmt.Errorf("%w: %d", ErrNotEnrolled, owner)
	}
	id := m.next
	m.next++
	p := &Presentation{
		ID: id, Owner: owner, Title: title, Slides: slides,
		ctrl: map[protocol.ParticipantID]bool{owner: true},
	}
	m.pres[id] = p
	m.emit(at, id, "pres.start", owner)
	return id, nil
}

// GrantControl lets the owner share presentation control (e.g. with a
// student presenting their outcome to the Metaverse community).
func (m *Manager) GrantControl(id ActivityID, owner, to protocol.ParticipantID) error {
	p, ok := m.pres[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoActivity, id)
	}
	if p.Owner != owner {
		return fmt.Errorf("%w: only the owner grants control", ErrWrongState)
	}
	if _, ok := m.enrolled[to]; !ok {
		return fmt.Errorf("%w: %d", ErrNotEnrolled, to)
	}
	p.ctrl[to] = true
	return nil
}

// Navigate moves the deck by delta slides (positive or negative), clamped.
func (m *Manager) Navigate(at time.Duration, id ActivityID, who protocol.ParticipantID, delta int) (int, error) {
	p, ok := m.pres[id]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrNoActivity, id)
	}
	if !p.ctrl[who] {
		return 0, fmt.Errorf("%w: %d has no control", ErrNotEnrolled, who)
	}
	p.slide += delta
	if p.slide < 0 {
		p.slide = 0
	}
	if p.slide >= p.Slides {
		p.slide = p.Slides - 1
	}
	m.emit(at, id, "pres.slide", who)
	return p.slide, nil
}

// CurrentSlide returns the deck position.
func (m *Manager) CurrentSlide(id ActivityID) (int, error) {
	p, ok := m.pres[id]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrNoActivity, id)
	}
	return p.slide, nil
}
