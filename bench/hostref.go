package bench

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host reference.
//
// The benchmark's host is a small virtual machine whose neighbours share its
// cores' execution units and caches: between identical runs every workload's
// wall time moves together by 10–40 % (70 % was seen), for minutes at a time,
// while a serial loop in registers moves by 2 %. No statistic of the step
// times themselves removes that — their tenth percentile drifts as far as
// their mean — so the run measures the drift. Between steps it runs small
// fixed loops, one per resource the neighbours take away: independent ALU
// streams (issue width), a copy inside the L1 cache (load and store ports), a
// walk along a 2 MB pointer chain (L2 and L3 latency; the steps evict it, the
// walk brings it back) and, for the workload that uses sockets, a ping-pong
// over a loopback TCP connection of its own (the kernel's socket path). The
// slowdown is the mean of the loops' times over their committed nominal
// values, and step_ms_mean and setup_s are reported at nominal speed: wall ÷
// slowdown. Which resource is short changes with the neighbours (one loop
// alone tracked one afternoon's drift with exponent 1.4 and the next with
// 0.7), which is why there are several.
//
// The reference is the benchmark's own frozen code, so a change to the system
// cannot move it, and a speed-up of the system shows in full.
const (
	// refWords is the chain's length in 4-byte links: 2 MB, the size of a
	// core's L2 cache, and small enough to have no TLB misses.
	refWords = 512 << 10
	refHops  = 20000
	// refStreams is the length of the ALU loop, refCopies the number of
	// refCopyBytes copies, refTrips the number of refTripBytes round trips.
	refStreams   = 150000
	refCopies    = 4000
	refCopyBytes = 16 << 10
	refTrips     = 150
	refTripBytes = 2048
)

// refNominal is the time of each loop in one sample on the reference host
// while its neighbours are quiet: walk, streams, copies, round trips. The
// values only fix the scale — with them the normalised figures read as a quiet
// run's wall-clock ones — and give the loops equal weight.
var refNominal = [4]time.Duration{2300 * time.Microsecond, 430 * time.Microsecond, 365 * time.Microsecond, 445 * time.Microsecond}

// refMemory maps the reference's memory once per process, outside the Go heap
// so that live_heap_mb stays the system's own: the chain — one cycle through
// every link, in an order fixed by the benchmark and not by the seed — and
// behind it the copy's two buffers and the ping-pong's one.
var refMemory = sync.OnceValues(func() ([]byte, error) {
	mem, err := syscall.Mmap(-1, 0, refWords*4+2*refCopyBytes+refTripBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("bench: host reference: %w", err)
	}
	chain := unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), refWords)
	order := rand.New(rand.NewSource(1)).Perm(refWords)
	for i, at := range order {
		chain[at] = uint32(order[(i+1)%refWords])
	}
	return mem, nil
})

// hostRef accumulates reference samples over one set-up or one window.
type hostRef struct {
	chain          []uint32
	at             uint32
	src, dst, trip []byte
	sink           uint64
	// near and far are the two ends of the ping-pong's connection as blocking
	// descriptors, so that a round trip is two system calls on the driver's
	// thread and no business of the Go scheduler's; nil without the loop.
	near, far *os.File
	err       error // the ping-pong's first failure

	samples int
	took    [len(refNominal)]time.Duration
}

// newHostRef returns a reference of three loops, or of four with sockets.
func newHostRef(sockets bool) (*hostRef, error) {
	mem, err := refMemory()
	if err != nil {
		return nil, err
	}
	bufs := mem[refWords*4:]
	r := &hostRef{
		chain: unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), refWords),
		src:   bufs[:refCopyBytes], dst: bufs[refCopyBytes : 2*refCopyBytes], trip: bufs[2*refCopyBytes:],
	}
	if !sockets {
		return r, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	near, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, err
	}
	defer near.Close()
	far, err := ln.Accept()
	if err != nil {
		return nil, err
	}
	defer far.Close()
	if r.near, err = near.(*net.TCPConn).File(); err != nil {
		return nil, err
	}
	if r.far, err = far.(*net.TCPConn).File(); err != nil {
		r.close()
		return nil, err
	}
	for _, f := range []*os.File{r.near, r.far} {
		if err := syscall.SetNonblock(int(f.Fd()), false); err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

func (r *hostRef) close() {
	for _, f := range []*os.File{r.near, r.far} {
		if f != nil {
			f.Close()
		}
	}
}

// sample runs every loop once.
func (r *hostRef) sample() {
	var t [len(refNominal) + 1]time.Time
	t[0] = time.Now()
	at := r.at
	for i := 0; i < refHops; i++ {
		at = r.chain[at]
	}
	r.at = at

	t[1] = time.Now()
	a, b, c, d, e, f, g, h := uint64(1), uint64(2), uint64(3), uint64(4), uint64(5), uint64(6), uint64(7), uint64(8)
	for i := 0; i < refStreams; i++ {
		a ^= a << 13
		b ^= b << 13
		c ^= c << 13
		d ^= d << 13
		e ^= e << 13
		f ^= f << 13
		g ^= g << 13
		h ^= h << 13
		a ^= a >> 7
		b ^= b >> 7
		c ^= c >> 7
		d ^= d >> 7
		e ^= e >> 7
		f ^= f >> 7
		g ^= g >> 7
		h ^= h >> 7
	}
	r.sink += a + b + c + d + e + f + g + h

	t[2] = time.Now()
	for i := 0; i < refCopies; i++ {
		copy(r.dst, r.src)
	}

	t[3] = time.Now()
	if r.near != nil && r.err == nil {
		r.err = r.roundTrips()
	}
	t[4] = time.Now()

	for i := range r.took {
		r.took[i] += t[i+1].Sub(t[i])
	}
	r.samples++
}

func (r *hostRef) roundTrips() error {
	near, far := int(r.near.Fd()), int(r.far.Fd())
	for i := 0; i < refTrips; i++ {
		if _, err := syscall.Write(near, r.trip); err != nil {
			return fmt.Errorf("bench: host reference: %w", err)
		}
		for n := 0; n < len(r.trip); {
			k, err := syscall.Read(far, r.trip[n:])
			if err != nil || k == 0 {
				return fmt.Errorf("bench: host reference: read %d: %v", k, err)
			}
			n += k
		}
	}
	return nil
}

// reset starts a new accumulation; the walk goes on from where it was.
func (r *hostRef) reset() { r.samples, r.took = 0, [len(refNominal)]time.Duration{} }

// spent is the time the samples took since the last reset.
func (r *hostRef) spent() (d time.Duration) {
	for _, t := range r.took {
		d += t
	}
	return d
}

// slowdown is the mean, over the loops in use, of time taken to nominal time
// since the last reset: 1 on the reference host while it is quiet.
func (r *hostRef) slowdown() float64 {
	loops := len(refNominal)
	if r.near == nil {
		loops--
	}
	var s float64
	for i, nominal := range refNominal[:loops] {
		s += float64(r.took[i]) / float64(nominal*time.Duration(r.samples))
	}
	return s / float64(loops)
}
