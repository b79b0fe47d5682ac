package session

import (
	"errors"
	"testing"
	"time"

	"metaclass/internal/protocol"
)

func newSession(t *testing.T, n int) (*Manager, []protocol.ParticipantID) {
	t.Helper()
	m := NewManager()
	ids := make([]protocol.ParticipantID, n)
	for i := range ids {
		ids[i] = protocol.ParticipantID(i + 1)
		role := protocol.RoleLearner
		if i == 0 {
			role = protocol.RoleEducator
		}
		m.Enroll(ids[i], role)
	}
	return m, ids
}

func TestQuizLifecycle(t *testing.T) {
	m, ids := newSession(t, 4)
	qid, err := m.CreateQuiz("latency basics", []Question{
		{Prompt: "threshold?", Choices: []string{"10ms", "100ms", "1s"}, Answer: 1},
		{Prompt: "protocol?", Choices: []string{"ARQ", "FEC"}, Answer: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Answer before open refused.
	if err := m.SubmitAnswer(0, qid, ids[1], 0, 1); !errors.Is(err, ErrWrongState) {
		t.Errorf("pre-open submit err = %v", err)
	}
	if err := m.OpenQuiz(time.Second, qid, time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := m.OpenQuiz(time.Second, qid, time.Minute); !errors.Is(err, ErrAlreadyOpen) {
		t.Errorf("double open err = %v", err)
	}
	// Student 1: both right. Student 2: one right. Student 3: silent.
	mustSubmit(t, m, qid, ids[1], 0, 1)
	mustSubmit(t, m, qid, ids[1], 1, 1)
	mustSubmit(t, m, qid, ids[2], 0, 1)
	mustSubmit(t, m, qid, ids[2], 1, 0)
	// Resubmission overwrites.
	mustSubmit(t, m, qid, ids[2], 1, 1)

	scores, err := m.CloseQuiz(2*time.Second, qid)
	if err != nil {
		t.Fatal(err)
	}
	if scores[ids[1]] != 2 || scores[ids[2]] != 2 {
		t.Errorf("scores = %v", scores)
	}
	if _, ok := scores[ids[3]]; ok {
		t.Error("silent student scored")
	}
	// Every step is on the session log.
	kinds := map[string]int{}
	for _, e := range m.Log() {
		kinds[e.Kind]++
	}
	if kinds["quiz.open"] != 1 || kinds["quiz.answer"] != 5 || kinds["quiz.close"] != 1 {
		t.Errorf("event kinds = %v", kinds)
	}
}

func mustSubmit(t *testing.T, m *Manager, q ActivityID, p protocol.ParticipantID, qi, c int) {
	t.Helper()
	if err := m.SubmitAnswer(1500*time.Millisecond, q, p, qi, c); err != nil {
		t.Fatal(err)
	}
}

func TestQuizValidation(t *testing.T) {
	m, ids := newSession(t, 2)
	if _, err := m.CreateQuiz("empty", nil); !errors.Is(err, ErrBadSubmission) {
		t.Errorf("empty quiz err = %v", err)
	}
	if _, err := m.CreateQuiz("bad", []Question{{Choices: []string{"only"}, Answer: 0}}); !errors.Is(err, ErrBadSubmission) {
		t.Errorf("one-choice err = %v", err)
	}
	if _, err := m.CreateQuiz("bad", []Question{{Choices: []string{"a", "b"}, Answer: 5}}); !errors.Is(err, ErrBadSubmission) {
		t.Errorf("bad answer err = %v", err)
	}
	qid, _ := m.CreateQuiz("ok", []Question{{Choices: []string{"a", "b"}, Answer: 0}})
	_ = m.OpenQuiz(0, qid, time.Minute)
	if err := m.SubmitAnswer(time.Second, qid, 99, 0, 0); !errors.Is(err, ErrNotEnrolled) {
		t.Errorf("stranger submit err = %v", err)
	}
	if err := m.SubmitAnswer(time.Second, qid, ids[1], 7, 0); !errors.Is(err, ErrBadSubmission) {
		t.Errorf("bad question err = %v", err)
	}
	if err := m.SubmitAnswer(time.Second, qid, ids[1], 0, 9); !errors.Is(err, ErrBadSubmission) {
		t.Errorf("bad choice err = %v", err)
	}
	// Window enforcement.
	if err := m.SubmitAnswer(2*time.Minute, qid, ids[1], 0, 0); !errors.Is(err, ErrWrongState) {
		t.Errorf("late submit err = %v", err)
	}
	if _, err := m.CloseQuiz(0, 999); !errors.Is(err, ErrNoActivity) {
		t.Errorf("close unknown err = %v", err)
	}
}

func TestBreakoutRace(t *testing.T) {
	m, ids := newSession(t, 6)
	bid, err := m.CreateBreakout("escape-1", []string{"alpha", "beta", "gamma"})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.OpenBreakout(0, bid); !errors.Is(err, ErrWrongState) {
		t.Errorf("open without teams err = %v", err)
	}
	if err := m.FormTeam(bid, "red", ids[1:3]); err != nil {
		t.Fatal(err)
	}
	if err := m.FormTeam(bid, "blue", ids[3:5]); err != nil {
		t.Fatal(err)
	}
	if err := m.OpenBreakout(time.Second, bid); err != nil {
		t.Fatal(err)
	}

	// Red solves stage 1; blue guesses wrong.
	adv, esc, err := m.AttemptStage(2*time.Second, bid, ids[1], "alpha")
	if err != nil || !adv || esc {
		t.Fatalf("red stage1: adv=%v esc=%v err=%v", adv, esc, err)
	}
	adv, esc, err = m.AttemptStage(2*time.Second, bid, ids[3], "wrong")
	if err != nil || adv || esc {
		t.Fatalf("blue wrong: adv=%v esc=%v err=%v", adv, esc, err)
	}
	// Stages must be solved in order: red cannot skip to gamma.
	adv, _, _ = m.AttemptStage(3*time.Second, bid, ids[2], "gamma")
	if adv {
		t.Error("stage skipping allowed")
	}
	// Red finishes.
	_, _, _ = m.AttemptStage(4*time.Second, bid, ids[2], "beta")
	_, esc, err = m.AttemptStage(5*time.Second, bid, ids[1], "gamma")
	if err != nil || !esc {
		t.Fatalf("red escape: esc=%v err=%v", esc, err)
	}

	lb, err := m.Leaderboard(bid)
	if err != nil {
		t.Fatal(err)
	}
	if len(lb) != 2 || lb[0].Team != "red" || !lb[0].Escaped {
		t.Errorf("leaderboard = %+v", lb)
	}
	if lb[0].EscapedAt != 5*time.Second {
		t.Errorf("escape time = %v", lb[0].EscapedAt)
	}
	if lb[1].Team != "blue" || lb[1].StagesSolved != 0 {
		t.Errorf("blue standing = %+v", lb[1])
	}
	// Attempt by teamless participant.
	if _, _, err := m.AttemptStage(6*time.Second, bid, ids[5], "alpha"); !errors.Is(err, ErrNotEnrolled) {
		t.Errorf("teamless attempt err = %v", err)
	}
	// Escaped team attempts again: stays escaped, no error.
	_, esc, err = m.AttemptStage(7*time.Second, bid, ids[1], "anything")
	if err != nil || !esc {
		t.Errorf("post-escape attempt: esc=%v err=%v", esc, err)
	}
}

func TestPresentationControl(t *testing.T) {
	m, ids := newSession(t, 3)
	owner, student, outsider := ids[0], ids[1], protocol.ParticipantID(99)

	pid, err := m.StartPresentation(0, owner, "metaverse 101", 10)
	if err != nil {
		t.Fatal(err)
	}
	// Owner navigates; clamping at both ends.
	if s, _ := m.Navigate(time.Second, pid, owner, 3); s != 3 {
		t.Errorf("slide = %d", s)
	}
	if s, _ := m.Navigate(time.Second, pid, owner, -99); s != 0 {
		t.Errorf("clamped low = %d", s)
	}
	if s, _ := m.Navigate(time.Second, pid, owner, 99); s != 9 {
		t.Errorf("clamped high = %d", s)
	}
	// Student cannot navigate until granted.
	if _, err := m.Navigate(time.Second, pid, student, 1); !errors.Is(err, ErrNotEnrolled) {
		t.Errorf("ungranted navigate err = %v", err)
	}
	if err := m.GrantControl(pid, student, student); !errors.Is(err, ErrWrongState) {
		t.Errorf("non-owner grant err = %v", err)
	}
	if err := m.GrantControl(pid, owner, outsider); !errors.Is(err, ErrNotEnrolled) {
		t.Errorf("grant to outsider err = %v", err)
	}
	if err := m.GrantControl(pid, owner, student); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Navigate(2*time.Second, pid, student, -2); err != nil {
		t.Errorf("granted navigate err = %v", err)
	}
	if s, _ := m.CurrentSlide(pid); s != 7 {
		t.Errorf("current slide = %d", s)
	}
}

func TestEventLogOrdered(t *testing.T) {
	m, ids := newSession(t, 3)
	qid, _ := m.CreateQuiz("q", []Question{{Choices: []string{"a", "b"}, Answer: 0}})
	_ = m.OpenQuiz(time.Second, qid, 0)
	_ = m.SubmitAnswer(2*time.Second, qid, ids[1], 0, 0)
	_, _ = m.CloseQuiz(3*time.Second, qid)
	log := m.Log()
	if len(log) != 3 {
		t.Fatalf("log = %d entries", len(log))
	}
	for i := 1; i < len(log); i++ {
		if log[i].At < log[i-1].At {
			t.Error("log out of order")
		}
	}
	// Log returns a copy.
	log[0].Kind = "tampered"
	if m.Log()[0].Kind == "tampered" {
		t.Error("Log leaked internal slice")
	}
}

func TestEnrollWithdraw(t *testing.T) {
	m, ids := newSession(t, 2)
	if m.Enrolled() != 2 {
		t.Errorf("enrolled = %d", m.Enrolled())
	}
	m.Withdraw(ids[1])
	if m.Enrolled() != 1 {
		t.Errorf("after withdraw = %d", m.Enrolled())
	}
	qid, _ := m.CreateQuiz("q", []Question{{Choices: []string{"a", "b"}, Answer: 0}})
	_ = m.OpenQuiz(0, qid, 0)
	if err := m.SubmitAnswer(time.Second, qid, ids[1], 0, 0); !errors.Is(err, ErrNotEnrolled) {
		t.Errorf("withdrawn submit err = %v", err)
	}
}

func TestNilSinkSafe(t *testing.T) {
	m := NewManager()
	m.Enroll(1, protocol.RoleEducator)
	qid, err := m.CreateQuiz("q", []Question{{Choices: []string{"a", "b"}, Answer: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.OpenQuiz(0, qid, 0); err != nil {
		t.Fatal(err)
	}
	if len(m.Log()) != 1 {
		t.Error("log not recorded by a Manager with no consumer")
	}
}
