package protocol

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"
)

// mustPanic runs fn and asserts it panics with a message containing every
// want fragment (the generation tag in particular).
func mustPanic(t *testing.T, fn func(), want ...string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic, got none")
		}
		msg := fmt.Sprint(r)
		for _, w := range want {
			if !strings.Contains(msg, w) {
				t.Fatalf("panic %q does not mention %q", msg, w)
			}
		}
	}()
	fn()
}

func TestFrameLifecycle(t *testing.T) {
	acq0, rel0 := FrameAccounting()
	f, err := EncodeFrame(&Ack{Participant: 9, Tick: 42})
	if err != nil {
		t.Fatal(err)
	}
	if f.Refs() != 1 {
		t.Fatalf("fresh frame refs = %d, want 1", f.Refs())
	}
	if one := referenceEncode(t, &Ack{Participant: 9, Tick: 42}); !bytes.Equal(f.Bytes(), one) {
		t.Fatalf("EncodeFrame bytes differ from the reference encoder:\n%x\n%x", f.Bytes(), one)
	}
	f.Retain()
	f.Retain()
	if f.Refs() != 3 {
		t.Fatalf("refs after two retains = %d, want 3", f.Refs())
	}
	f.Release()
	f.Release()
	if acq, rel := FrameAccounting(); acq-acq0 != 1 || rel != rel0 {
		t.Fatalf("accounting mid-life: acquired %d released %d", acq-acq0, rel-rel0)
	}
	f.Release()
	if acq, rel := FrameAccounting(); acq-acq0 != 1 || rel-rel0 != 1 {
		t.Fatalf("accounting after final release: acquired %d released %d", acq-acq0, rel-rel0)
	}
}

func TestFrameDoubleReleasePanicsWithGeneration(t *testing.T) {
	f := CopyFrame([]byte("abc"))
	gen := f.Gen()
	f.Release()
	mustPanic(t, f.Release, "double-release", fmt.Sprintf("gen %d", gen+1))
}

func TestFrameUseAfterReleasePanicsWithGeneration(t *testing.T) {
	f := AcquireFrame()
	gen := f.Gen()
	f.Release()
	mustPanic(t, func() { _ = f.Bytes() }, "use-after-release", fmt.Sprintf("gen %d", gen+1))
	mustPanic(t, func() { _ = f.Len() }, "use-after-release")
	mustPanic(t, f.Retain, "retain-after-release")
}

func TestFrameStaleGenerationReleasePanics(t *testing.T) {
	f := AcquireFrame()
	gen := f.Gen()
	f.Release() // frame recycled: generation advances
	mustPanic(t, func() { f.ReleaseGen(gen) },
		"stale generation", fmt.Sprintf("generation %d", gen))
}

func TestCopyFrameDoesNotAliasSource(t *testing.T) {
	src := []byte{1, 2, 3, 4}
	f := CopyFrame(src)
	defer f.Release()
	src[0] = 99
	if f.Bytes()[0] != 1 {
		t.Fatal("CopyFrame aliases its source slice")
	}
}

func TestEncodeFrameReusesPooledBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under -race; alloc counts are meaningless")
	}
	// Warm the pool, then assert the steady-state acquire/encode/release
	// cycle allocates nothing.
	msg := &PoseUpdate{Participant: 1, Seq: 7, CapturedAt: time.Second}
	for i := 0; i < 16; i++ {
		f, err := EncodeFrame(msg)
		if err != nil {
			t.Fatal(err)
		}
		f.Release()
	}
	allocs := testing.AllocsPerRun(200, func() {
		f, err := EncodeFrame(msg)
		if err != nil {
			t.Fatal(err)
		}
		f.Release()
	})
	if allocs > 0 {
		t.Fatalf("EncodeFrame+Release allocates %.1f/op in steady state, want 0", allocs)
	}
}

// TestFillFrameCommitsOnlyWhatArrives: a length prefix that claims a
// maximal frame, followed by a stalled body, must not commit the claimed
// size. The pool is emptied first (two GCs) so no grown buffer hides the
// allocation.
func TestFillFrameCommitsOnlyWhatArrives(t *testing.T) {
	live0 := LiveFrames()
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f, err := FillFrame(bytes.NewReader(make([]byte, 10)), MaxPayload+60)
	runtime.ReadMemStats(&after)
	if err == nil {
		f.Release()
		t.Fatal("FillFrame of a 10-byte reader succeeded")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 128<<10 {
		t.Fatalf("a stalled %d-byte claim allocated %d bytes, want < %d", MaxPayload+60, n, 128<<10)
	}
	if live := LiveFrames(); live != live0 {
		t.Fatalf("%d frames leaked by the short read", live-live0)
	}
}

// TestFillFrameGrowsAcrossSmallReads: a body several growth steps long,
// delivered a byte at a time, arrives intact.
func TestFillFrameGrowsAcrossSmallReads(t *testing.T) {
	live0 := LiveFrames()
	body := make([]byte, 300<<10)
	for i := range body {
		body[i] = byte(i * 7)
	}
	f, err := FillFrame(iotest.OneByteReader(bytes.NewReader(body)), len(body))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.Bytes(), body) {
		t.Fatal("body read in small pieces arrived altered")
	}
	f.Release()
	if live := LiveFrames(); live != live0 {
		t.Fatalf("%d frames leaked", live-live0)
	}
}

// BenchmarkEncodeFramePoseUpdate times the send path of every one-off frame:
// acquire → encode → seal → release, zero allocations in steady state.
func BenchmarkEncodeFramePoseUpdate(b *testing.B) {
	msg := &PoseUpdate{
		Participant: 3, Seq: 1000, CapturedAt: 90 * time.Second,
		Pose:   WirePose{PosMM: [3]int64{-1200, 0, 34000}, Quat: [4]int16{32767, -1, 2, -3}},
		VelMMS: [3]int64{-50, 0, 1400},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f, err := EncodeFrame(msg)
		if err != nil {
			b.Fatal(err)
		}
		f.Release()
	}
}

// BenchmarkEncodeFrameSnapshot100 measures the pooled cohort-frame path at
// keyframe scale.
func BenchmarkEncodeFrameSnapshot100(b *testing.B) {
	snap := &Snapshot{Tick: 9}
	for i := 0; i < 100; i++ {
		snap.Entities = append(snap.Entities, EntityState{
			Participant: ParticipantID(i + 1),
			Pose:        WirePose{PosMM: [3]int64{int64(i) * 1200, 0, 4000}, Quat: [4]int16{32767, 0, 0, 0}},
		})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f, err := EncodeFrame(snap)
		if err != nil {
			b.Fatal(err)
		}
		f.Release()
	}
}

// TestFrameConcurrentRetainRelease is the -race stress for the refcount
// itself: many goroutines share frames, retaining and releasing their own
// references concurrently (the shape of cohort fan-out delivery callbacks
// racing each other in a threaded transport). The race detector must stay
// silent and every frame must end fully released.
func TestFrameConcurrentRetainRelease(t *testing.T) {
	const (
		goroutines = 8
		rounds     = 200
	)
	live0 := LiveFrames()
	for round := 0; round < rounds; round++ {
		f := CopyFrame([]byte("shared-frame-payload"))
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			f.Retain() // one recipient reference per goroutine, taken up front
			wg.Add(1)
			go func() {
				defer wg.Done()
				if len(f.Bytes()) == 0 {
					t.Error("empty shared frame")
				}
				f.Release()
			}()
		}
		wg.Wait()
		f.Release() // the cache-style base reference
	}
	// Each goroutine also churns private acquire/encode/release cycles to
	// stress the pool from multiple threads at once.
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			msg := &Ack{Participant: ParticipantID(g), Tick: uint64(g)}
			for i := 0; i < rounds; i++ {
				f, err := EncodeFrame(msg)
				if err != nil {
					t.Error(err)
					return
				}
				f.Retain()
				f.Release()
				f.Release()
			}
		}(g)
	}
	wg.Wait()
	if live := LiveFrames(); live != live0 {
		t.Fatalf("%d frames leaked by concurrent stress", live-live0)
	}
}
