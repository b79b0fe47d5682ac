package video

import (
	"math"
	"testing"
	"time"

	"metaclass/internal/netsim"
	"metaclass/internal/protocol"
	"metaclass/internal/vclock"
)

func TestEncoderRealizesBitrate(t *testing.T) {
	enc := NewEncoder()
	var bytes int
	const frames = 300 // 10 seconds
	for i := 0; i < frames; i++ {
		f := enc.NextFrame(time.Duration(i) * 33 * time.Millisecond)
		bytes += len(f.Data)
		if f.Keyframe != (i%30 == 0) {
			t.Fatalf("frame %d keyframe flag wrong", i)
		}
		if f.ID != uint32(i) {
			t.Fatalf("frame id %d, want %d", f.ID, i)
		}
	}
	gotBps := float64(bytes) * 8 / 10
	if gotBps < 1.8e6 || gotBps > 2.2e6 {
		t.Errorf("realized bitrate %v, want ~2e6", gotBps)
	}
}

func TestEncoderKeyframesLarger(t *testing.T) {
	enc := NewEncoder()
	key := enc.NextFrame(0)
	delta := enc.NextFrame(33 * time.Millisecond)
	if !key.Keyframe || delta.Keyframe {
		t.Fatal("GOP structure wrong")
	}
	if len(key.Data) <= len(delta.Data)*3 {
		t.Errorf("keyframe %d bytes vs delta %d: want ~5x", len(key.Data), len(delta.Data))
	}
}

func TestQualityMonotone(t *testing.T) {
	prev := -1.0
	for _, b := range []float64{0, 0.3e6, 1e6, 2e6, 6e6, 20e6} {
		q := Quality(b)
		if q < 0 || q > 1 {
			t.Fatalf("Quality(%v) = %v out of range", b, q)
		}
		if q <= prev && b > 0 {
			t.Fatalf("quality not increasing at %v", b)
		}
		prev = q
	}
}

func TestResidualFrameLoss(t *testing.T) {
	// No parity: any shard loss kills the frame. P = 1-(1-p)^k.
	p := 0.1
	k := 8
	got := ResidualFrameLoss(p, k, 0)
	want := 1 - math.Pow(1-p, float64(k))
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("r=0 residual = %v, want %v", got, want)
	}
	// More parity strictly reduces residual loss.
	prev := 1.1
	for r := 0; r <= 6; r++ {
		res := ResidualFrameLoss(p, k, r)
		if res >= prev {
			t.Fatalf("residual not decreasing at r=%d", r)
		}
		prev = res
	}
	// Boundary conditions.
	if ResidualFrameLoss(0, 8, 0) != 0 || ResidualFrameLoss(1, 8, 8) != 1 {
		t.Error("boundary residuals wrong")
	}
}

func TestPlanParity(t *testing.T) {
	// 5% shard loss, k=8: r=0 residual ~0.34, so parity must be > 0.
	r := PlanParity(0.05, 8, 0.005, 16)
	if r < 2 {
		t.Errorf("parity = %d at 5%% loss, want >= 2", r)
	}
	if got := ResidualFrameLoss(0.05, 8, r); got > 0.005 {
		t.Errorf("planned parity misses target: %v", got)
	}
	// Minimality: one less parity must violate the target.
	if r > 0 {
		if got := ResidualFrameLoss(0.05, 8, r-1); got <= 0.005 {
			t.Errorf("parity not minimal: r-1 residual %v", got)
		}
	}
	if PlanParity(0, 8, 0.005, 16) != 0 {
		t.Error("zero loss needs zero parity")
	}
	if PlanParity(0.9, 8, 1e-9, 3) != 3 {
		t.Error("cap not honored")
	}
}

func TestControllerDecide(t *testing.T) {
	var c Controller
	// Short RTT, generous deadline: ARQ viable.
	plan := c.Decide(0.02, 30*time.Millisecond, 150*time.Millisecond)
	if !plan.UseARQ {
		t.Error("ARQ should be viable at 30ms RTT / 150ms deadline")
	}
	// Long RTT: must rely on FEC.
	plan = c.Decide(0.02, 200*time.Millisecond, 150*time.Millisecond)
	if plan.UseARQ {
		t.Error("ARQ infeasible at 200ms RTT / 150ms deadline")
	}
	if plan.Parity == 0 {
		t.Error("no parity at 2% loss without ARQ")
	}
	// High loss shrinks the bitrate (overhead eats budget).
	low := c.Decide(0.001, 200*time.Millisecond, 150*time.Millisecond)
	high := c.Decide(0.15, 200*time.Millisecond, 150*time.Millisecond)
	if high.BitrateBps > low.BitrateBps {
		t.Errorf("bitrate grew with loss: %v vs %v", high.BitrateBps, low.BitrateBps)
	}
	if high.Parity <= low.Parity {
		t.Errorf("parity did not grow with loss: %d vs %d", high.Parity, low.Parity)
	}
}

func TestStrategyNames(t *testing.T) {
	for _, s := range []Strategy{StrategyARQ, StrategyFEC, StrategyAdaptive} {
		if s.String() == "" {
			t.Errorf("strategy %d unnamed", s)
		}
	}
	if Strategy(99).String() != "Strategy(99)" {
		t.Error("unknown strategy string")
	}
}

// runStream wires a Sender and Receiver over a simulated link and runs for
// the given duration, returning both stats.
func runStream(t *testing.T, cfg StreamConfig, link netsim.LinkConfig, dur time.Duration) (SenderStats, ReceiverStats) {
	t.Helper()
	sim := vclock.New(42)
	net := netsim.New(sim)
	mustAddHost(t, net, "tx")
	mustAddHost(t, net, "rx")
	if err := net.ConnectBoth("tx", "rx", link); err != nil {
		t.Fatal(err)
	}

	var sender *Sender
	var receiver *Receiver

	sender = NewSender(sim, cfg, func(c *Chunk) {
		_ = net.SendFrame("tx", "rx", protocol.CopyFrame(c.Encode()))
	})
	var nack func(*Nack)
	if cfg.Strategy == StrategyARQ || cfg.Strategy == StrategyAdaptive {
		nack = func(n *Nack) {
			_ = net.SendFrame("rx", "tx", protocol.CopyFrame(n.Encode()))
		}
	}
	receiver = NewReceiver(sim, cfg, nack)

	if err := net.Bind("rx", netsim.HandlerFunc(func(_ netsim.Addr, payload []byte) {
		var c Chunk
		if c.Decode(payload) == nil {
			receiver.HandleChunk(&c)
		}
	})); err != nil {
		t.Fatal(err)
	}
	if err := net.Bind("tx", netsim.HandlerFunc(func(_ netsim.Addr, payload []byte) {
		var n Nack
		if n.Decode(payload) == nil {
			sender.HandleNack(&n)
		}
	})); err != nil {
		t.Fatal(err)
	}

	// Adaptive feedback loop: report loss/RTT once a second.
	if cfg.Strategy == StrategyAdaptive {
		rtt := 2 * (link.Latency + link.Jitter/2)
		sim.Ticker(time.Second, func() {
			st := sender.Stats()
			loss := EstimatedLoss(st.ChunksSent, receiver.Stats().ChunksReceived)
			sender.ReportNetwork(loss, rtt)
		})
	}

	sender.Start()
	if err := sim.Run(dur); err != nil {
		t.Fatal(err)
	}
	sender.Stop()
	// Let in-flight frames finalize.
	_ = sim.Run(dur + time.Second)
	return sender.Stats(), receiver.Stats()
}

func mustAddHost(t *testing.T, n *netsim.Network, a netsim.Addr) {
	t.Helper()
	if err := n.AddHost(a, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStreamLosslessDeliversEverything(t *testing.T) {
	cfg := StreamConfig{Strategy: StrategyFEC, R: 2}
	ss, rs := runStream(t, cfg, netsim.LinkConfig{Latency: 20 * time.Millisecond}, 5*time.Second)
	if ss.FramesSent == 0 {
		t.Fatal("no frames sent")
	}
	if rs.FramesLost != 0 || rs.FramesLate != 0 {
		t.Errorf("lossless link lost %d late %d", rs.FramesLost, rs.FramesLate)
	}
	if rs.DeliveredRatio() < 0.999 {
		t.Errorf("delivered = %v", rs.DeliveredRatio())
	}
}

func TestStreamFECRecoversLoss(t *testing.T) {
	cfg := StreamConfig{Strategy: StrategyFEC, R: 4}
	link := netsim.LinkConfig{Latency: 20 * time.Millisecond, LossRate: 0.03}
	_, rs := runStream(t, cfg, link, 10*time.Second)
	if rs.DeliveredRatio() < 0.95 {
		t.Errorf("delivered = %v at 3%% loss with r=4, want >= 0.95", rs.DeliveredRatio())
	}
	if rs.FramesFEC == 0 {
		t.Error("FEC never exercised despite loss")
	}
}

func TestStreamNoProtectionSuffersLoss(t *testing.T) {
	// Ablation baseline: r=0 and no ARQ. With 3% shard loss and k=8, about
	// 1-(0.97)^8 ~ 22% of frames must die.
	cfg := StreamConfig{Strategy: StrategyFEC}
	cfg.R = -1 // explicit zero parity (negative normalizes to 0)
	link := netsim.LinkConfig{Latency: 20 * time.Millisecond, LossRate: 0.03}
	_, rs := runStream(t, cfg, link, 10*time.Second)
	lossRatio := 1 - rs.DeliveredRatio()
	if lossRatio < 0.10 || lossRatio > 0.40 {
		t.Errorf("unprotected frame loss = %v, want ~0.22", lossRatio)
	}
}

func TestStreamARQRecoversOnShortRTT(t *testing.T) {
	cfg := StreamConfig{Strategy: StrategyARQ}
	link := netsim.LinkConfig{Latency: 10 * time.Millisecond, LossRate: 0.03}
	ss, rs := runStream(t, cfg, link, 10*time.Second)
	if rs.NacksSent == 0 || ss.Retransmits == 0 {
		t.Errorf("ARQ never exercised: nacks=%d retx=%d", rs.NacksSent, ss.Retransmits)
	}
	if rs.DeliveredRatio() < 0.95 {
		t.Errorf("ARQ delivered = %v on short RTT, want >= 0.95", rs.DeliveredRatio())
	}
}

func TestStreamARQFailsOnLongRTT(t *testing.T) {
	// One-way 120 ms on a 150 ms deadline: the NACK round cannot complete.
	cfg := StreamConfig{Strategy: StrategyARQ}
	link := netsim.LinkConfig{Latency: 120 * time.Millisecond, LossRate: 0.05}
	_, arq := runStream(t, cfg, link, 10*time.Second)

	cfgF := StreamConfig{Strategy: StrategyFEC, R: 4}
	_, fec := runStream(t, cfgF, link, 10*time.Second)

	t.Logf("long-RTT delivered: arq=%.3f fec=%.3f", arq.DeliveredRatio(), fec.DeliveredRatio())
	if fec.DeliveredRatio() <= arq.DeliveredRatio() {
		t.Errorf("FEC (%v) should beat ARQ (%v) on long RTT — the paper's C4 claim",
			fec.DeliveredRatio(), arq.DeliveredRatio())
	}
}

func TestStreamAdaptiveMatchesConditions(t *testing.T) {
	// Adaptive must perform within a few percent of the best static choice
	// on both a short-RTT and a long-RTT path.
	short := netsim.LinkConfig{Latency: 10 * time.Millisecond, LossRate: 0.03}
	long := netsim.LinkConfig{Latency: 120 * time.Millisecond, LossRate: 0.05}

	_, adShort := runStream(t, StreamConfig{Strategy: StrategyAdaptive}, short, 10*time.Second)
	_, adLong := runStream(t, StreamConfig{Strategy: StrategyAdaptive}, long, 10*time.Second)

	if adShort.DeliveredRatio() < 0.93 {
		t.Errorf("adaptive on short RTT = %v", adShort.DeliveredRatio())
	}
	if adLong.DeliveredRatio() < 0.90 {
		t.Errorf("adaptive on long RTT = %v", adLong.DeliveredRatio())
	}
}

func TestReceiverIgnoresWrongStream(t *testing.T) {
	sim := vclock.New(1)
	r := NewReceiver(sim, StreamConfig{}, nil)
	r.HandleChunk(&Chunk{Stream: 99, FrameID: 1, GroupK: 1, Data: []byte{1}})
	if r.Stats().ChunksReceived != 0 {
		t.Error("wrong-stream chunk accepted")
	}
}

func TestSenderStatsAccounting(t *testing.T) {
	cfg := StreamConfig{Strategy: StrategyFEC, R: 2}
	ss, rs := runStream(t, cfg, netsim.LinkConfig{}, 2*time.Second)
	if ss.ChunksSent != ss.FramesSent*10 {
		t.Errorf("chunks %d != frames %d * 10", ss.ChunksSent, ss.FramesSent)
	}
	if rs.ChunksReceived != ss.ChunksSent {
		t.Errorf("lossless: received %d != sent %d", rs.ChunksReceived, ss.ChunksSent)
	}
}
