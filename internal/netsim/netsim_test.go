package netsim

import (
	"errors"
	"math"
	"testing"
	"time"

	"metaclass/internal/endpoint"
	"metaclass/internal/protocol"
	"metaclass/internal/vclock"
)

func newNet(t *testing.T) (*vclock.Sim, *Network) {
	t.Helper()
	sim := vclock.New(42)
	return sim, New(sim)
}

type capture struct {
	from    []Addr
	payload [][]byte
	at      []time.Duration
	sim     *vclock.Sim
}

func (c *capture) Receive(from Addr, payload []byte) {
	c.from = append(c.from, from)
	c.payload = append(c.payload, payload)
	c.at = append(c.at, c.sim.Now())
}

func TestSendDeliversWithLatency(t *testing.T) {
	sim, n := newNet(t)
	rx := &capture{sim: sim}
	mustAdd(t, n, "a", nil)
	mustAdd(t, n, "b", rx)
	if err := n.Connect("a", "b", LinkConfig{Latency: 10 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if err := n.SendFrame("a", "b", protocol.CopyFrame([]byte("hello"))); err != nil {
		t.Fatal(err)
	}
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(rx.payload) != 1 || string(rx.payload[0]) != "hello" {
		t.Fatalf("payloads = %q", rx.payload)
	}
	if rx.at[0] != 10*time.Millisecond {
		t.Errorf("delivered at %v, want 10ms", rx.at[0])
	}
	if rx.from[0] != "a" {
		t.Errorf("from = %s, want a", rx.from[0])
	}
}

func TestNoRoute(t *testing.T) {
	_, n := newNet(t)
	mustAdd(t, n, "a", nil)
	mustAdd(t, n, "b", nil)
	err := n.SendFrame("a", "b", protocol.CopyFrame([]byte("x")))
	if !errors.Is(err, ErrNoRoute) {
		t.Fatalf("err = %v, want ErrNoRoute", err)
	}
	err = n.SendFrame("ghost", "b", protocol.CopyFrame(nil))
	if !errors.Is(err, ErrUnknownHost) {
		t.Fatalf("err = %v, want ErrUnknownHost", err)
	}
}

func TestDuplicateHostAndLink(t *testing.T) {
	_, n := newNet(t)
	mustAdd(t, n, "a", nil)
	if err := n.AddHost("a", nil); !errors.Is(err, ErrHostExists) {
		t.Errorf("dup host err = %v", err)
	}
	mustAdd(t, n, "b", nil)
	if err := n.Connect("a", "b", LinkConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := n.Connect("a", "b", LinkConfig{}); !errors.Is(err, ErrLinkExists) {
		t.Errorf("dup link err = %v", err)
	}
}

func TestLinkConfigValidate(t *testing.T) {
	tests := []struct {
		name string
		cfg  LinkConfig
		ok   bool
	}{
		{"valid", LinkConfig{Latency: time.Millisecond, LossRate: 0.5}, true},
		{"neg-latency", LinkConfig{Latency: -1}, false},
		{"neg-jitter", LinkConfig{Jitter: -1}, false},
		{"loss>1", LinkConfig{LossRate: 1.5}, false},
		{"neg-loss", LinkConfig{LossRate: -0.1}, false},
		{"nan-loss", LinkConfig{LossRate: math.NaN()}, false},
		{"neg-bw", LinkConfig{Bandwidth: -5}, false},
		{"neg-queue", LinkConfig{QueueLimit: -1}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.cfg.Validate()
			if tt.ok && err != nil {
				t.Errorf("unexpected error: %v", err)
			}
			if !tt.ok && err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestLossDropsAll(t *testing.T) {
	sim, n := newNet(t)
	rx := &capture{sim: sim}
	mustAdd(t, n, "a", nil)
	mustAdd(t, n, "b", rx)
	if err := n.Connect("a", "b", LinkConfig{LossRate: 1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := n.SendFrame("a", "b", protocol.CopyFrame([]byte{1})); err != nil {
			t.Fatal(err)
		}
	}
	_ = sim.RunAll()
	if len(rx.payload) != 0 {
		t.Fatalf("got %d deliveries on 100%% loss link", len(rx.payload))
	}
	st, err := n.StatsOf("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if st.Dropped != 100 {
		t.Errorf("dropped = %d, want 100", st.Dropped)
	}
}

func TestLossRateApproximate(t *testing.T) {
	sim, n := newNet(t)
	rx := &capture{sim: sim}
	mustAdd(t, n, "a", nil)
	mustAdd(t, n, "b", rx)
	if err := n.Connect("a", "b", LinkConfig{LossRate: 0.3}); err != nil {
		t.Fatal(err)
	}
	const total = 10000
	for i := 0; i < total; i++ {
		_ = n.SendFrame("a", "b", protocol.CopyFrame([]byte{1}))
	}
	_ = sim.RunAll()
	got := float64(len(rx.payload)) / total
	if got < 0.66 || got > 0.74 {
		t.Errorf("delivery rate = %v, want ~0.70", got)
	}
}

func TestBandwidthSerialization(t *testing.T) {
	sim, n := newNet(t)
	rx := &capture{sim: sim}
	mustAdd(t, n, "a", nil)
	mustAdd(t, n, "b", rx)
	// 8000 bits/s: a 1000-byte message takes exactly 1 second on the wire.
	if err := n.Connect("a", "b", LinkConfig{Bandwidth: 8000}); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 1000)
	_ = n.SendFrame("a", "b", protocol.CopyFrame(payload))
	_ = n.SendFrame("a", "b", protocol.CopyFrame(payload))
	_ = sim.RunAll()
	if len(rx.at) != 2 {
		t.Fatalf("deliveries = %d, want 2", len(rx.at))
	}
	if rx.at[0] != time.Second {
		t.Errorf("first delivery at %v, want 1s", rx.at[0])
	}
	if rx.at[1] != 2*time.Second {
		t.Errorf("second delivery at %v, want 2s (queued behind first)", rx.at[1])
	}
}

func TestQueueLimitTailDrop(t *testing.T) {
	sim, n := newNet(t)
	rx := &capture{sim: sim}
	mustAdd(t, n, "a", nil)
	mustAdd(t, n, "b", rx)
	cfg := LinkConfig{Bandwidth: 8000, QueueLimit: 1500}
	if err := n.Connect("a", "b", cfg); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 1000)
	_ = n.SendFrame("a", "b", protocol.CopyFrame(payload)) // queued: 1000
	_ = n.SendFrame("a", "b", protocol.CopyFrame(payload)) // would make 2000 > 1500: dropped
	_ = sim.RunAll()
	if len(rx.at) != 1 {
		t.Fatalf("deliveries = %d, want 1", len(rx.at))
	}
	st, _ := n.StatsOf("a", "b")
	if st.Dropped != 1 {
		t.Errorf("dropped = %d, want 1", st.Dropped)
	}
}

func TestQueueDrainsOverTime(t *testing.T) {
	sim, n := newNet(t)
	rx := &capture{sim: sim}
	mustAdd(t, n, "a", nil)
	mustAdd(t, n, "b", rx)
	cfg := LinkConfig{Bandwidth: 8000, QueueLimit: 1000}
	if err := n.Connect("a", "b", cfg); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 1000)
	_ = n.SendFrame("a", "b", protocol.CopyFrame(payload))
	_ = sim.Run(2 * time.Second) // first message fully delivered, queue empty
	_ = n.SendFrame("a", "b", protocol.CopyFrame(payload))
	_ = sim.RunAll()
	if len(rx.at) != 2 {
		t.Fatalf("deliveries = %d, want 2 (queue should drain)", len(rx.at))
	}
}

func TestJitterBounded(t *testing.T) {
	sim, n := newNet(t)
	rx := &capture{sim: sim}
	mustAdd(t, n, "a", nil)
	mustAdd(t, n, "b", rx)
	cfg := LinkConfig{Latency: 10 * time.Millisecond, Jitter: 5 * time.Millisecond}
	if err := n.Connect("a", "b", cfg); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		_ = n.SendFrame("a", "b", protocol.CopyFrame([]byte{1}))
	}
	_ = sim.RunAll()
	var sawJitter bool
	for _, at := range rx.at {
		if at < 10*time.Millisecond || at >= 15*time.Millisecond {
			t.Fatalf("delivery at %v outside [10ms, 15ms)", at)
		}
		if at != 10*time.Millisecond {
			sawJitter = true
		}
	}
	if !sawJitter {
		t.Error("jitter never applied")
	}
}

func TestConnectBothAndSetLink(t *testing.T) {
	sim, n := newNet(t)
	rxa := &capture{sim: sim}
	rxb := &capture{sim: sim}
	mustAdd(t, n, "a", rxa)
	mustAdd(t, n, "b", rxb)
	if err := n.ConnectBoth("a", "b", LinkConfig{Latency: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	_ = n.SendFrame("a", "b", protocol.CopyFrame([]byte("to-b")))
	_ = n.SendFrame("b", "a", protocol.CopyFrame([]byte("to-a")))
	_ = sim.RunAll()
	if len(rxa.payload) != 1 || len(rxb.payload) != 1 {
		t.Fatal("bidirectional delivery failed")
	}

	// Degrade the a->b direction only.
	if err := n.SetLink("a", "b", LinkConfig{Latency: 100 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	cfg, err := n.LinkConfigOf("a", "b")
	if err != nil || cfg.Latency != 100*time.Millisecond {
		t.Errorf("LinkConfigOf = %+v, %v", cfg, err)
	}
	back, err := n.LinkConfigOf("b", "a")
	if err != nil || back.Latency != time.Millisecond {
		t.Errorf("reverse link changed: %+v, %v", back, err)
	}
}

func TestBindLateHandler(t *testing.T) {
	sim, n := newNet(t)
	mustAdd(t, n, "a", nil)
	mustAdd(t, n, "b", nil) // no handler yet: deliveries discarded
	if err := n.Connect("a", "b", LinkConfig{}); err != nil {
		t.Fatal(err)
	}
	_ = n.SendFrame("a", "b", protocol.CopyFrame([]byte{1}))
	_ = sim.RunAll()

	rx := &capture{sim: sim}
	if err := n.Bind("b", rx); err != nil {
		t.Fatal(err)
	}
	_ = n.SendFrame("a", "b", protocol.CopyFrame([]byte{2}))
	_ = sim.RunAll()
	if len(rx.payload) != 1 || rx.payload[0][0] != 2 {
		t.Fatalf("late-bound handler got %v", rx.payload)
	}
	if err := n.Bind("ghost", rx); !errors.Is(err, ErrUnknownHost) {
		t.Errorf("Bind unknown err = %v", err)
	}
}

func TestCloseStopsDelivery(t *testing.T) {
	sim, n := newNet(t)
	rx := &capture{sim: sim}
	mustAdd(t, n, "a", nil)
	mustAdd(t, n, "b", rx)
	if err := n.Connect("a", "b", LinkConfig{Latency: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	_ = n.SendFrame("a", "b", protocol.CopyFrame([]byte{1}))
	n.Close()
	_ = sim.RunAll()
	if len(rx.payload) != 0 {
		t.Error("delivery after Close")
	}
	if err := n.SendFrame("a", "b", protocol.CopyFrame([]byte{2})); !errors.Is(err, ErrNetworkClosed) {
		t.Errorf("Send after close err = %v", err)
	}
}

func TestStatsAggregate(t *testing.T) {
	sim, n := newNet(t)
	rx := &capture{sim: sim}
	mustAdd(t, n, "a", nil)
	mustAdd(t, n, "b", rx)
	if err := n.Connect("a", "b", LinkConfig{Latency: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		_ = n.SendFrame("a", "b", protocol.CopyFrame(make([]byte, 100)))
	}
	_ = sim.RunAll()
	st := n.Stats()
	if st.Delivered != 10 {
		t.Errorf("delivered = %d", st.Delivered)
	}
	if st.SentBytes != 1000 {
		t.Errorf("bytes = %d", st.SentBytes)
	}
	if st.Latency.Count() != 10 {
		t.Errorf("latency samples = %d", st.Latency.Count())
	}
}

func TestProfilesValid(t *testing.T) {
	profiles := map[string]LinkConfig{
		"intercampus": InterCampus(),
		"edge-cloud":  EdgeToCloud(),
		"residential": ResidentialBroadband(30 * time.Millisecond),
	}
	for name, cfg := range profiles {
		if err := cfg.Validate(); err != nil {
			t.Errorf("profile %s invalid: %v", name, err)
		}
	}
}

func TestDegraded(t *testing.T) {
	base := LinkConfig{Latency: 10 * time.Millisecond, LossRate: 0.1}
	d := Degraded(base, 3, 5)
	if d.Latency != 30*time.Millisecond {
		t.Errorf("latency = %v", d.Latency)
	}
	if d.LossRate != 0.5 {
		t.Errorf("loss = %v", d.LossRate)
	}
	if capped := Degraded(base, 1, 100); capped.LossRate != 1 {
		t.Errorf("loss not capped: %v", capped.LossRate)
	}
}

func mustAdd(t *testing.T, n *Network, addr Addr, h endpoint.Receiver) {
	t.Helper()
	if err := n.AddHost(addr, h); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSendDeliver(b *testing.B) {
	sim := vclock.New(1)
	n := New(sim)
	_ = n.AddHost("a", nil)
	_ = n.AddHost("b", HandlerFunc(func(Addr, []byte) {}))
	_ = n.Connect("a", "b", LinkConfig{Latency: time.Millisecond})
	payload := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = n.SendFrame("a", "b", protocol.CopyFrame(payload))
		sim.Step()
	}
}

// frameRecorder is an endpoint.FrameReceiver that retains every frame it is
// handed, so the test can check it got the delivered frame itself.
type frameRecorder struct {
	frames []*protocol.Frame
}

func (r *frameRecorder) Receive(Addr, []byte) { panic("frame receiver handed bytes") }

func (r *frameRecorder) ReceiveFrame(_ Addr, f *protocol.Frame) {
	f.Retain()
	r.frames = append(r.frames, f)
}

// TestDeliverToReceiverAndFrameReceiver binds a plain receiver and a frame
// receiver on one network: the first gets borrowed bytes, the second the
// frame behind them, and once the retained frames go back no frame is live.
func TestDeliverToReceiverAndFrameReceiver(t *testing.T) {
	live0 := protocol.LiveFrames()
	sim, n := newNet(t)
	var got [][]byte
	mustAdd(t, n, "src", nil)
	mustAdd(t, n, "bytes", HandlerFunc(func(from Addr, payload []byte) {
		if from != "src" {
			t.Errorf("bytes receiver: from %q", from)
		}
		got = append(got, append([]byte(nil), payload...))
	}))
	frames := &frameRecorder{}
	mustAdd(t, n, "frames", frames)
	for _, dst := range []Addr{"bytes", "frames"} {
		if err := n.Connect("src", dst, LinkConfig{Latency: time.Millisecond}); err != nil {
			t.Fatal(err)
		}
	}
	for i := byte(1); i <= 3; i++ {
		for _, dst := range []Addr{"bytes", "frames"} {
			if err := n.SendFrame("src", dst, protocol.CopyFrame([]byte{i, i})); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || len(frames.frames) != 3 {
		t.Fatalf("bytes receiver got %d payloads, frame receiver %d frames; want 3 each", len(got), len(frames.frames))
	}
	for i := range 3 {
		want := []byte{byte(i + 1), byte(i + 1)}
		if string(got[i]) != string(want) {
			t.Errorf("payload %d = %v, want %v", i, got[i], want)
		}
		if b := frames.frames[i].Bytes(); string(b) != string(want) {
			t.Errorf("frame %d = %v, want %v", i, b, want)
		}
		frames.frames[i].Release()
	}
	if live := protocol.LiveFrames(); live != live0 {
		t.Fatalf("%d frames live after delivery", live-live0)
	}
}
