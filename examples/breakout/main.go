// Breakout: the paper's gamified learning scenario (§III-A) — cross-campus
// teams racing through a "digital breakout" puzzle sequence while their
// avatars stay synchronized, plus a learner-driven presentation afterwards.
package main

import (
	"fmt"
	"log"
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
	d, err := classroom.NewDeployment(classroom.Config{Seed: 11})
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

	sess := session.NewManager()

	teacher, err := gz.AddEducator("Prof. Wang", trace.Lecturer{
		Left: mathx.V3(-2, 0, 0), Right: mathx.V3(2, 0, 0),
	})
	if err != nil {
		return err
	}
	sess.Enroll(teacher, classroom.RoleEducator)

	// Mixed teams: each team pairs a GZ student, a CWB student and a remote
	// learner — the learner-collaboration pattern the paper highlights.
	type member struct {
		id   classroom.ParticipantID
		from string
	}
	var members []member
	for i := 0; i < 3; i++ {
		id, err := gz.AddLearner(fmt.Sprintf("gz-%d", i), trace.Seated{
			Anchor: mathx.V3(float64(i)-1, 0, 3), Phase: float64(i)})
		if err != nil {
			return err
		}
		members = append(members, member{id, "gz"})
	}
	for i := 0; i < 3; i++ {
		id, err := cwb.AddLearner(fmt.Sprintf("cwb-%d", i), trace.Seated{
			Anchor: mathx.V3(float64(i)-1, 0, 3), Phase: float64(i) + 0.5})
		if err != nil {
			return err
		}
		members = append(members, member{id, "cwb"})
	}
	for i := 0; i < 3; i++ {
		_, id, err := d.AddRemoteLearner(fmt.Sprintf("vr-%d", i), trace.Seated{},
			netsim.ResidentialBroadband(25*time.Millisecond))
		if err != nil {
			return err
		}
		members = append(members, member{id, "vr"})
	}
	for _, m := range members {
		sess.Enroll(m.id, classroom.RoleLearner)
	}

	bo, err := sess.CreateBreakout("networking-escape", []string{"crc32", "vandermonde", "kcenter"})
	if err != nil {
		return err
	}
	// Team red: members 0,3,6 (one per venue); team blue: 1,4,7; green: 2,5,8.
	for t, name := range []string{"red", "blue", "green"} {
		ids := []classroom.ParticipantID{members[t].id, members[t+3].id, members[t+6].id}
		if err := sess.FormTeam(bo, name, ids); err != nil {
			return err
		}
	}
	if err := d.Run(2 * time.Second); err != nil {
		return err
	}
	if err := sess.OpenBreakout(d.Now(), bo); err != nil {
		return err
	}
	fmt.Println("breakout opened: 3 mixed-venue teams, 3 stages")

	// Scripted race: red solves fast, blue fumbles stage 2, green stalls.
	type attempt struct {
		after time.Duration
		who   classroom.ParticipantID
		code  string
	}
	attempts := []attempt{
		{1 * time.Second, members[0].id, "crc32"},
		{2 * time.Second, members[1].id, "crc32"},
		{3 * time.Second, members[3].id, "vandermonde"},
		{4 * time.Second, members[4].id, "wrong-guess"},
		{5 * time.Second, members[2].id, "crc32"},
		{6 * time.Second, members[6].id, "kcenter"}, // red escapes
		{8 * time.Second, members[4].id, "vandermonde"},
		{9 * time.Second, members[7].id, "kcenter"}, // blue escapes
	}
	for _, a := range attempts {
		if err := d.Run(a.after - (d.Now() - 2*time.Second) + 0); err != nil {
			return err
		}
		adv, esc, err := sess.AttemptStage(d.Now(), bo, a.who, a.code)
		if err != nil {
			return err
		}
		status := "wrong"
		if adv {
			status = "advanced"
		}
		if esc {
			status = "ESCAPED"
		}
		fmt.Printf("  t=%-6v %-12s tried %-12q -> %s\n",
			d.Now().Round(time.Millisecond), d.NameOf(a.who), a.code, status)
	}

	lb, err := sess.Leaderboard(bo)
	if err != nil {
		return err
	}
	fmt.Println("\nleaderboard:")
	for i, row := range lb {
		esc := ""
		if row.Escaped {
			esc = fmt.Sprintf("escaped at %v", row.EscapedAt.Round(time.Millisecond))
		}
		fmt.Printf("  %d. team %-6s %d/3 stages %s\n", i+1, row.Team, row.StagesSolved, esc)
	}

	// The winning team's remote member presents their solution to all venues
	// (learner-driven activity, §III-A).
	pres, err := sess.StartPresentation(d.Now(), teacher, "red team solution", 5)
	if err != nil {
		return err
	}
	if err := sess.GrantControl(pres, teacher, members[6].id); err != nil {
		return err
	}
	for i := 0; i < 4; i++ {
		if err := d.Run(time.Second); err != nil {
			return err
		}
		if _, err := sess.Navigate(d.Now(), pres, members[6].id, 1); err != nil {
			return err
		}
	}
	slide, _ := sess.CurrentSlide(pres)
	fmt.Printf("\npresentation: remote learner %s drove the deck to slide %d/5 from their VR classroom\n",
		d.NameOf(members[6].id), slide+1)
	fmt.Printf("activity events logged: %d\n", len(sess.Log()))
	return nil
}
