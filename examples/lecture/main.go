// Lecture: the paper's Fig. 2 unit case end to end — a cross-campus lecture
// shared between HKUST GZ and HKUST CWB with remote VR auditors, including
// an in-Metaverse quiz (§III-A feature i). Prints per-venue visibility,
// latency budgets, and the quiz outcome.
package main

import (
	"fmt"
	"log"
	"maps"
	"slices"
	"time"

	"metaclass/classroom"
	"metaclass/internal/mathx"
	"metaclass/internal/netsim"
	"metaclass/internal/session"
	"metaclass/internal/trace"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	d, err := classroom.NewDeployment(classroom.Config{Seed: 7})
	if err != nil {
		return err
	}
	gz, err := d.AddCampus("gz", 1)
	if err != nil {
		return err
	}
	cwb, err := d.AddCampus("cwb", 2)
	if err != nil {
		return err
	}
	if err := d.ConnectCampuses(gz, cwb); err != nil {
		return err
	}

	teacher, err := gz.AddEducator("Prof. Wang", trace.Lecturer{
		Left: mathx.V3(-3, 0, 0), Right: mathx.V3(3, 0, 0),
	})
	if err != nil {
		return err
	}

	sess := session.NewManager()
	sess.Enroll(teacher, classroom.RoleEducator)

	var students []classroom.ParticipantID
	for i := 0; i < 8; i++ {
		id, err := gz.AddLearner(fmt.Sprintf("gz-%d", i), trace.Seated{
			Anchor: mathx.V3(float64(i%4)-1.5, 0, 2.5+float64(i/4)), Phase: float64(i),
		})
		if err != nil {
			return err
		}
		students = append(students, id)
		sess.Enroll(id, classroom.RoleLearner)
	}
	for i := 0; i < 8; i++ {
		id, err := cwb.AddLearner(fmt.Sprintf("cwb-%d", i), trace.Seated{
			Anchor: mathx.V3(float64(i%4)-1.5, 0, 2.5+float64(i/4)), Phase: float64(i) + 0.4,
		})
		if err != nil {
			return err
		}
		students = append(students, id)
		sess.Enroll(id, classroom.RoleLearner)
	}
	for i := 0; i < 6; i++ {
		_, id, err := d.AddRemoteLearner(fmt.Sprintf("remote-%d", i), trace.Seated{
			Anchor: mathx.V3(float64(i), 0, 0), Phase: 1.9 * float64(i),
		}, netsim.ResidentialBroadband(time.Duration(20+10*i)*time.Millisecond))
		if err != nil {
			return err
		}
		students = append(students, id)
		sess.Enroll(id, classroom.RoleLearner)
	}

	// First half of the lecture.
	if err := d.Run(15 * time.Second); err != nil {
		return err
	}

	// Mid-lecture quiz, answered from all three venues.
	quiz, err := sess.CreateQuiz("checkpoint", []session.Question{
		{Prompt: "Latency users notice?", Choices: []string{"10 ms", "100 ms", "1 s"}, Answer: 1},
		{Prompt: "Who corrects remote avatar poses?", Choices: []string{"headset", "edge server", "router"}, Answer: 1},
	})
	if err != nil {
		return err
	}
	if err := sess.OpenQuiz(d.Now(), quiz, time.Minute); err != nil {
		return err
	}
	for i, id := range students {
		// Most students get both right; a few miss one.
		a0, a1 := 1, 1
		if i%5 == 0 {
			a1 = 0
		}
		if err := sess.SubmitAnswer(d.Now(), quiz, id, 0, a0); err != nil {
			return err
		}
		if err := sess.SubmitAnswer(d.Now(), quiz, id, 1, a1); err != nil {
			return err
		}
	}
	if err := d.Run(15 * time.Second); err != nil {
		return err
	}
	scores, err := sess.CloseQuiz(d.Now(), quiz)
	if err != nil {
		return err
	}

	// Report.
	total := 1 + len(students)
	fmt.Printf("Fig. 2 unit case after %v:\n", d.Now())
	for _, campus := range []*classroom.Campus{gz, cwb} {
		age := campus.Edge().Metrics().Histogram("remote.pose.age")
		fmt.Printf("  %-9s sees %2d/%d participants; remote avatar age p95=%v; visitor seats=%d\n",
			campus.Name(), len(campus.Edge().VisibleParticipants()), total,
			age.P95().Round(time.Millisecond),
			campus.Edge().Metrics().Counter("seats.assigned").Value())
	}
	fmt.Printf("  %-9s hosts %2d/%d entities; VR seats=%d\n",
		"cloud", d.Cloud().World().Len(), total,
		d.Cloud().Metrics().Counter("seats.assigned").Value())
	perfect := 0
	for _, s := range scores {
		if s == 2 {
			perfect++
		}
	}
	fmt.Printf("  quiz: %d submissions, %d perfect scores\n", len(scores), perfect)

	// Where does everyone see the teacher right now?
	now := d.Now()
	pGZ, _ := gz.Edge().DisplayPose(teacher, now)
	pCWB, _ := cwb.Edge().DisplayPose(teacher, now)
	fmt.Printf("  teacher now: GZ renders %v; CWB renders (seat-corrected) %v\n",
		pGZ.Position, pCWB.Position)
	clients := d.Clients()
	sampleRemote := slices.Min(slices.Collect(maps.Keys(clients)))
	if p, ok := clients[sampleRemote].DisplayedPose(teacher, now); ok {
		fmt.Printf("  remote learner %d renders teacher at %v\n", sampleRemote, p.Position)
	}
	return nil
}
