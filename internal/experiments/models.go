package experiments

import (
	"fmt"
	"time"

	"metaclass/internal/avatar"
	"metaclass/internal/fusion"
	"metaclass/internal/mathx"
	"metaclass/internal/netsim"
	"metaclass/internal/protocol"
	"metaclass/internal/render"
	"metaclass/internal/sensors"
	"metaclass/internal/sickness"
	"metaclass/internal/trace"
	"metaclass/internal/vclock"
	"metaclass/internal/video"
)

// E6Render reproduces claim C3: photoreal avatar scenes overwhelm
// lightweight headsets; split rendering holds the frame budget, and
// speculation hides the cloud round trip.
func E6Render(seed int64) Table {
	t := Table{
		ID:    "E6",
		Title: "C3 — avatar rendering: device-only vs split vs split+speculation (standalone headset, 72 Hz)",
		Columns: []string{"avatars", "lod", "plan", "local.frame", "72Hz.ok",
			"avatar.lag", "mispredict"},
	}
	cfg := render.PipelineConfig{RTT: 40 * time.Millisecond}
	const headAngVel = 0.6 // rad/s: attentive student scanning the room
	for _, n := range []int{10, 30, 60} {
		for _, lod := range []avatar.LoD{avatar.LoDMedium, avatar.LoDPhotoreal} {
			hq := int64(n) * int64(lod.Triangles())
			lq := int64(n) * int64(avatar.LoDLow.Triangles()) // low-LoD stand-ins
			name := fmt.Sprintf("%s(%dk)", lod, lod.Triangles()/1000)
			for _, plan := range render.Plans() {
				rep := render.Evaluate(plan, render.DeviceStandalone, hq, lq, cfg, headAngVel)
				ok := "yes"
				if rep.LocalFrameTime > time.Second/72 {
					ok = "NO"
				}
				t.AddRow(fmt.Sprint(n), name, plan.String(),
					fmtMS(rep.LocalFrameTime), ok,
					fmtMS(rep.AvatarLag), fmt.Sprintf("%.1f%%", rep.MispredictRate*100))
			}
		}
	}
	t.Notes = append(t.Notes,
		"paper: avatars 'may be too complex to render with WebGL and lightweight VR headsets ... leverage servers (cloud and edge) to pre-render'",
		"device-only fails the 72 Hz budget from 30 photoreal avatars; split always holds it; speculation cuts the visible lag by the prediction hit rate")
	return t
}

// E7Video reproduces claim C4: deadline-hit rate for lecture video under
// loss and RTT, comparing ARQ, static FEC and the adaptive joint
// source-coding + FEC controller.
func E7Video(seed int64) Table {
	t := Table{
		ID:      "E7",
		Title:   "C4 — video deadline-hit rate: ARQ vs static FEC vs adaptive joint source+FEC (150 ms deadline)",
		Columns: []string{"loss", "one-way", "strategy", "delivered", "overhead", "quality"},
	}
	cases := []struct {
		loss   float64
		oneWay time.Duration
	}{
		{0.01, 20 * time.Millisecond},
		{0.05, 20 * time.Millisecond},
		{0.01, 120 * time.Millisecond},
		{0.05, 120 * time.Millisecond},
		{0.10, 120 * time.Millisecond},
	}
	for _, c := range cases {
		link := netsim.LinkConfig{Latency: c.oneWay, Jitter: 5 * time.Millisecond, LossRate: c.loss}
		for _, strat := range []video.Strategy{video.StrategyARQ, video.StrategyFEC, video.StrategyAdaptive} {
			ss, rs, err := runVideoPoint(seed, strat, link)
			if err != nil {
				t.Notes = append(t.Notes, fmt.Sprintf("%.0f%% %v %s failed: %v", c.loss*100, c.oneWay, strat, err))
				continue
			}
			overhead := "0%"
			if ss.FramesSent > 0 {
				perFrame := float64(ss.ChunksSent) / float64(ss.FramesSent)
				overhead = fmt.Sprintf("%.0f%%", (perFrame/8-1)*100)
			}
			t.AddRow(fmt.Sprintf("%.0f%%", c.loss*100), fmt.Sprint(c.oneWay), strat.String(),
				fmt.Sprintf("%.1f%%", rs.DeliveredRatio()*100), overhead,
				fmt.Sprintf("%.2f", video.Quality(ss.BitrateBps)*rs.DeliveredRatio()))
		}
	}
	t.Notes = append(t.Notes,
		"paper's ref [46] (Nebula) motivates 'joint source coding and forward error correction at the application level'",
		"ARQ wins on short RTT (cheap), collapses at 120 ms one-way; adaptive matches the best static choice everywhere")
	return t
}

func runVideoPoint(seed int64, strat video.Strategy, link netsim.LinkConfig) (video.SenderStats, video.ReceiverStats, error) {
	sim := vclock.New(seed)
	net := netsim.New(sim)
	_ = net.AddHost("tx", nil)
	_ = net.AddHost("rx", nil)
	if err := net.ConnectBoth("tx", "rx", link); err != nil {
		return video.SenderStats{}, video.ReceiverStats{}, err
	}
	cfg := video.StreamConfig{Strategy: strat, R: 3}
	var sender *video.Sender
	var receiver *video.Receiver
	sender = video.NewSender(sim, cfg, func(c *video.Chunk) {
		_ = net.SendFrame("tx", "rx", protocol.CopyFrame(c.Encode()))
	})
	var nack func(*video.Nack)
	if strat == video.StrategyARQ || strat == video.StrategyAdaptive {
		nack = func(n *video.Nack) {
			_ = net.SendFrame("rx", "tx", protocol.CopyFrame(n.Encode()))
		}
	}
	receiver = video.NewReceiver(sim, cfg, nack)
	// Each host decodes into a value of its own. Neither handler keeps it:
	// what the receiver keeps (Chunk.Data) and what the sender reads
	// (Nack.Missing) are copies.
	var rxChunk video.Chunk
	var txNack video.Nack
	_ = net.Bind("rx", netsim.HandlerFunc(func(_ netsim.Addr, payload []byte) {
		if rxChunk.Decode(payload) == nil {
			receiver.HandleChunk(&rxChunk)
		}
	}))
	_ = net.Bind("tx", netsim.HandlerFunc(func(_ netsim.Addr, payload []byte) {
		if txNack.Decode(payload) == nil {
			sender.HandleNack(&txNack)
		}
	}))
	if strat == video.StrategyAdaptive {
		rtt := 2 * (link.Latency + link.Jitter/2)
		sim.Ticker(time.Second, func() {
			st := sender.Stats()
			loss := video.EstimatedLoss(st.ChunksSent, receiver.Stats().ChunksReceived)
			sender.ReportNetwork(loss, rtt)
		})
	}
	sender.Start()
	err := sim.Run(12 * time.Second)
	sender.Stop()
	if err == nil {
		err = sim.Run(14 * time.Second)
	}
	net.Close() // releases the frames still in flight
	return sender.Stats(), receiver.Stats(), err
}

// E8Sickness reproduces claim C5: the fuzzy-logic cybersickness surface
// over latency x frame rate, modulated by individual profiles.
func E8Sickness(seed int64) Table {
	t := Table{
		ID:      "E8",
		Title:   "C5 — predicted cybersickness (0-100) vs latency and frame rate, by learner profile",
		Columns: []string{"latency", "fps", "average", "gamer", "older", "sensitive"},
	}
	profiles := map[string]sickness.Profile{
		"average":   sickness.DefaultProfile(),
		"gamer":     {Age: 20, GamingHoursPerWeek: 20, BaselineSusceptibility: 1},
		"older":     {Age: 60, GamingHoursPerWeek: 0, BaselineSusceptibility: 1},
		"sensitive": {Age: 25, GamingHoursPerWeek: 2, BaselineSusceptibility: 1.7},
	}
	for _, lat := range []time.Duration{20, 80, 150, 250} {
		for _, fps := range []float64{90, 45, 20} {
			c := sickness.Conditions{
				MotionToPhoton: lat * time.Millisecond,
				FrameRateHz:    fps,
				FOVDegrees:     100,
				NavSpeed:       1.5, // tutorial navigation
			}
			row := []string{fmt.Sprintf("%dms", lat), fmt.Sprintf("%.0f", fps)}
			for _, name := range []string{"average", "gamer", "older", "sensitive"} {
				s := sickness.Predict(c, profiles[name])
				row = append(row, fmt.Sprintf("%.0f (%s)", s, sickness.Band(s)))
			}
			t.AddRow(row...)
		}
	}
	// Mitigation demo: the speed cap that keeps an average learner mild.
	c := sickness.Conditions{MotionToPhoton: 120 * time.Millisecond, FrameRateHz: 60, FOVDegrees: 100}
	cap := sickness.Mitigate(c, sickness.DefaultProfile(), 35)
	t.Notes = append(t.Notes,
		"method of the paper's ref [42]: Mamdani fuzzy inference + individual factors",
		fmt.Sprintf("mitigation (ref [24]'s speed protector): at 120 ms / 60 fps, capping navigation at %.2f m/s keeps the average learner under 35/100", cap))
	return t
}

// fusionPoint measures pose-estimation RMS error for one sensing mix
// (shared by E10).
func fusionPoint(seed int64, useHeadset, useRoom bool, occlusion float64) (float64, error) {
	sim := vclock.New(seed)
	script := trace.Seated{Anchor: mathx.V3(1, 0, 2), Phase: 0.4}
	f := fusion.New()
	sink := func(o sensors.Observation) { f.Observe(o) }
	if useHeadset {
		h := sensors.NewHeadset("p", sim, script, sensors.HeadsetConfig{DriftRate: 0.02}, sink)
		h.Start()
	}
	if useRoom {
		arr := sensors.NewArray(3, 10, 8, sim, sensors.RoomSensorConfig{OcclusionRate: occlusion}, sink)
		arr.Track("p", script)
		arr.Start()
	}
	const dur = 30 * time.Second
	if err := sim.Run(dur); err != nil {
		return 0, err
	}
	return fusion.RMSError(f,
		func(t time.Duration) mathx.Vec3 { return script.PoseAt(t).Position },
		5*time.Second, dur, 50*time.Millisecond), nil
}
