package protocol

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"testing"
	"time"
)

// referenceEntityEncode is EntityState.encode as it stood before the
// reserve-and-index encoder replaced it: one checked append per field. The
// replacement must stay byte-identical to it (referenceEncode in
// codec_equiv_test.go calls msg.encode itself, so it cannot see an
// EntityState regression). Its decode counterpart needs no copy: the
// field-by-field decoder is still in the package as decodeChecked.
func referenceEntityEncode(e *EntityState, w *Writer) {
	w.U32(uint32(e.Participant))
	w.U16(uint16(e.Home))
	w.Varint(int64(e.CapturedAt))
	e.Pose.encode(w)
	for _, v := range e.VelMMS {
		w.Varint(v)
	}
	w.BytesVar(e.Expression)
	w.U16(e.Seat)
	w.U8(e.Flags)
}

// sweepVarints are the varint values the generated entities put in each of
// the seven positions: every encoded length from 1 to 10 bytes on both signs.
var sweepVarints = []int64{
	0, 1, -1, 63, -63, 64, -64, 8191, -8191, 8192, -8192,
	1 << 20, -(1 << 20), 1 << 34, -(1 << 34), math.MinInt64, math.MaxInt64,
}

// setVarint writes v into the k-th varint of e in wire order.
func setVarint(e *EntityState, k int, v int64) {
	switch {
	case k == 0:
		e.CapturedAt = time.Duration(v)
	case k <= 3:
		e.Pose.PosMM[k-1] = v
	default:
		e.VelMMS[k-4] = v
	}
}

// nthVarint reads the k-th varint of e in wire order.
func nthVarint(e *EntityState, k int) int64 {
	switch {
	case k == 0:
		return int64(e.CapturedAt)
	case k <= 3:
		return e.Pose.PosMM[k-1]
	default:
		return e.VelMMS[k-4]
	}
}

// sweepEntities is the generated half of the differential cases: each value
// in each position alone, in every position at once, and rotated across the
// positions, each with no expression, one byte and 200 bytes.
func sweepEntities() []EntityState {
	long := bytes.Repeat([]byte{0xA5}, 200)
	var out []EntityState
	for _, expr := range [][]byte{nil, {7}, long} {
		base := EntityState{Participant: 0x01020304, Home: 0x0506, Expression: expr,
			Pose: WirePose{Quat: [4]int16{32767, -32768, -1, 258}}, Seat: 0x0708, Flags: FlagHandRaised}
		for j, v := range sweepVarints {
			for k := 0; k < 7; k++ {
				e := base
				setVarint(&e, k, v)
				out = append(out, e)
			}
			all, rotated := base, base
			for k := 0; k < 7; k++ {
				setVarint(&all, k, v)
				setVarint(&rotated, k, sweepVarints[(j+k)%len(sweepVarints)])
			}
			out = append(out, all, rotated)
		}
	}
	return out
}

// seedEntityLists are the entity lists of every Snapshot and Delta among the
// fuzz seeds.
func seedEntityLists() [][]EntityState {
	var out [][]EntityState
	for _, msg := range append(fuzzSeedMessages(), fuzzBoundarySeedMessages()...) {
		switch m := msg.(type) {
		case *Snapshot:
			out = append(out, m.Entities)
		case *Delta:
			out = append(out, m.Changed)
		}
	}
	return out
}

func referencePayload(entities []EntityState) []byte {
	var w Writer
	for i := range entities {
		referenceEntityEncode(&entities[i], &w)
	}
	return w.Bytes()
}

func sameEntity(a, b *EntityState) bool {
	return a.Participant == b.Participant && a.Home == b.Home && a.CapturedAt == b.CapturedAt &&
		a.Pose == b.Pose && a.VelMMS == b.VelMMS && a.Seat == b.Seat && a.Flags == b.Flags &&
		(a.Expression == nil) == (b.Expression == nil) && bytes.Equal(a.Expression, b.Expression)
}

// diffDecode decodes payload[start:] as back-to-back entities through
// EntityState.decode and through the checked path alone, into destinations
// full of stale values, and requires the same struct, offset and error after
// every entity. The payload's capacity is clipped so a read past its end
// panics instead of landing in the backing array. It returns the entities
// decoded, the offset each began at, and the shared final error.
func diffDecode(t testing.TB, payload []byte, start int) ([]EntityState, []int, error) {
	t.Helper()
	payload = payload[:len(payload):len(payload)]
	stale := EntityState{Participant: 9, Home: 9, CapturedAt: 9, Pose: WirePose{PosMM: [3]int64{9, 9, 9}, Quat: [4]int16{9, 9, 9, 9}},
		VelMMS: [3]int64{9, 9, 9}, Expression: []byte{9}, Seat: 9, Flags: 9}
	got, ref := Reader{buf: payload, off: start}, Reader{buf: payload, off: start}
	var out []EntityState
	var starts []int
	for got.Err() == nil && got.Remaining() > 0 {
		starts = append(starts, got.off)
		a, b := stale, stale
		a.decode(&got)
		b.decodeChecked(&ref)
		if !sameEntity(&a, &b) || got.off != ref.off || got.err != ref.err {
			at := starts[len(out)]
			t.Fatalf("entity at %d of a %d-byte payload (%x…):\n decode        %+v off %d err %v\n decodeChecked %+v off %d err %v",
				at, len(payload), payload[at:min(at+48, len(payload))], a, got.off, got.err, b, ref.off, ref.err)
		}
		out = append(out, a)
	}
	return out, starts, got.Err()
}

// diffDecodeTruncations runs diffDecode on the payload and on every proper
// prefix of it, so each entity is decoded with every count of bytes after it
// — on both sides of the maxEntityFixed guard — and cut at each of its own.
// A prefix is decoded from the last entity boundary at least maxEntityFixed
// bytes before the cut: the entities before that one are whole and took the
// unchecked path, exactly as in the full decode. It returns what the whole
// payload decoded to.
func diffDecodeTruncations(t testing.TB, payload []byte) ([]EntityState, error) {
	t.Helper()
	whole, starts, err := diffDecode(t, payload, 0)
	from := 0
	for n := 0; n < len(payload); n++ {
		for from+1 < len(starts) && starts[from+1] <= n-maxEntityFixed {
			from++
		}
		if _, _, err := diffDecode(t, payload[:n], starts[from]); err == nil && n > starts[from] && n < starts[from]+minEntityWire {
			t.Fatalf("a %d-byte prefix decoded an entity", n-starts[from])
		}
	}
	return whole, err
}

// checkEncode requires EntityState.encode to append exactly want to a buffer
// holding prefix with spare bytes of capacity after it, to leave the prefix
// and (when it did not have to grow) everything past its own output alone.
func checkEncode(t testing.TB, e *EntityState, want []byte, spare int) {
	t.Helper()
	prefix := []byte{0xAA, 0xBB, 0xCC}
	buf := bytes.Repeat([]byte{0xEE}, len(prefix)+spare)
	copy(buf, prefix)
	w := Writer{buf: buf[:len(prefix)]}
	e.encode(&w)
	out := w.Bytes()
	if !bytes.Equal(out[:len(prefix)], prefix) || !bytes.Equal(out[len(prefix):], want) {
		t.Fatalf("spare %d: encode of %+v\n got  %x\n want %x%x", spare, *e, out, prefix, want)
	}
	if !bytes.Equal(buf[:len(prefix)], prefix) {
		t.Fatalf("spare %d: the lent buffer's prefix was disturbed: %x", spare, buf[:len(prefix)])
	}
	need := maxEntityFixed + len(e.Expression) + 3
	if spare < need {
		return
	}
	if &out[0] != &buf[0] {
		t.Fatalf("spare %d ≥ reserve %d but encode moved off the buffer", spare, need)
	}
	for i, c := range buf[len(out):] {
		if c != 0xEE {
			t.Fatalf("spare %d: byte %d past the output was written (%#x)", spare, i, c)
		}
	}
}

func TestEntityCodecMatchesReference(t *testing.T) {
	lists := seedEntityLists()
	sweep := sweepEntities()
	for i := 0; i < len(sweep); i += 5 { // runs of five: most entities have neighbours on both sides
		lists = append(lists, sweep[i:min(i+5, len(sweep))])
	}
	for n := 0; n < 256; n += 5 { // every expression length, one- and two-byte length prefixes
		var list []EntityState
		for l := n; l < min(n+5, 256); l++ {
			e := sweep[l%len(sweep)]
			e.Expression = bytes.Repeat([]byte{byte(l)}, l)
			list = append(list, e)
		}
		lists = append(lists, list)
	}
	var dec Decoder
	for li, list := range lists {
		payload := referencePayload(list)
		// (a) Encoding: each entity alone against the reference at every
		// interesting amount of spare capacity, then the whole list.
		var whole Writer
		for i := range list {
			e := &list[i]
			var w Writer
			referenceEntityEncode(e, &w)
			need := maxEntityFixed + len(e.Expression) + 3
			for _, spare := range []int{0, 1, maxEntityFixed - 1, need - 1, need, need + 1, 4096} {
				checkEncode(t, e, w.Bytes(), spare)
			}
			e.encode(&whole)
		}
		if !bytes.Equal(whole.Bytes(), payload) {
			t.Fatalf("encoding %d entities back to back diverged from the reference", len(list))
		}
		// (b) Decoding: whole and cut at every byte.
		got, err := diffDecodeTruncations(t, payload)
		if err != nil || len(got) != len(list) {
			t.Fatalf("decoded %d of %d entities, err %v", len(got), len(list), err)
		}
		for i := range got {
			want := list[i]
			if len(want.Expression) == 0 {
				want.Expression = nil
			}
			if !sameEntity(&got[i], &want) {
				t.Fatalf("entity %d round trip:\n got  %+v\n want %+v", i, got[i], want)
			}
		}
		// (c) The sender form: the list's AppendEntity spans in a body frame,
		// sealed as a Snapshot and as a Delta (0–3 removals), frame exactly as
		// the Snapshot and Delta of the list, and decode as those.
		var spans []byte
		for i := range list {
			spans = AppendEntity(spans, &list[i])
		}
		if !bytes.Equal(spans, payload) {
			t.Fatalf("AppendEntity spans of %d entities diverged from the reference", len(list))
		}
		removed := []ParticipantID{7, 0x01020304, 1 << 31}[:li%4]
		body := func() *Frame {
			f := AcquireBody()
			for i := range list {
				f.AppendSpan(AppendEntity(nil, &list[i]))
			}
			return f
		}
		snap, delta := body(), body()
		for _, id := range removed {
			delta.AppendRemoved(id)
		}
		if err := snap.SealSnapshot(7, len(list)); err != nil {
			t.Fatal(err)
		}
		if err := delta.SealDelta(300, 1<<40, len(list), len(removed)); err != nil {
			t.Fatal(err)
		}
		for _, m := range []struct {
			wire *Frame
			ref  Message
		}{
			{snap, &Snapshot{Tick: 7, Entities: list}},
			{delta, &Delta{BaseTick: 300, Tick: 1 << 40, Changed: list, Removed: removed}},
		} {
			got := m.wire.Bytes()
			want, err := AppendEncode(nil, m.ref)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("sealed %T of %d entities, %d removals:\n got  %x\n want %x", m.ref, len(list), len(removed), got, want)
			}
			if msg, _, err := dec.Decode(got); err != nil || fmt.Sprintf("%T", msg) != fmt.Sprintf("%T", m.ref) {
				t.Fatalf("sealed %T frame decoded as %T, %v", m.ref, msg, err)
			}
			m.wire.Release()
		}
	}
}

// hostileEntity is a hand-built entity whose k-th varint is the given bytes.
func hostileEntity(k int, varint []byte) []byte {
	var w Writer
	w.U32(0x01020304)
	w.U16(0x0506)
	for i := 0; i < 7; i++ {
		if i == 4 {
			w.Raw([]byte{0x7F, 0xFF, 0, 0, 0, 0, 0, 0})
		}
		if i == k {
			w.Raw(varint)
		} else {
			w.Varint(int64(i+1) * 1000)
		}
	}
	w.BytesVar([]byte{1, 2})
	w.U16(0x0708)
	w.U8(FlagSpeaking)
	return w.Bytes()
}

// (c) Varints an encoder never writes, in each of the seven positions, with
// enough bytes after them for the unchecked path to be the one that meets
// them and with too few: both paths must agree on the value or on the error.
func TestEntityCodecHostileVarints(t *testing.T) {
	cont := func(n int, last byte) []byte { return append(bytes.Repeat([]byte{0x80}, n), last) }
	cases := []struct {
		name   string
		varint []byte
		ok     bool
		value  int64
	}{
		{"non-minimal zero", []byte{0x80, 0x00}, true, 0},
		{"non-minimal zero in ten bytes", cont(9, 0x00), true, 0},
		{"ten bytes, tenth is 1", cont(9, 0x01), true, 1 << 62},
		{"ten bytes, tenth is 2", cont(9, 0x02), false, 0},
		{"ten bytes, tenth is 0x7f", cont(9, 0x7F), false, 0},
		{"eleven bytes", cont(10, 0x00), false, 0},
		{"eleven continuation bytes", bytes.Repeat([]byte{0xFF}, 11), false, 0},
	}
	minimal := referencePayload([]EntityState{{Participant: 1}})
	padding := bytes.Repeat(minimal, 4) // 100 bytes: past the guard
	for _, tc := range cases {
		for k := 0; k < 7; k++ {
			bad := hostileEntity(k, tc.varint)
			layouts := []struct {
				payload []byte
				index   int // which entity is the hostile one
			}{
				{bad, 0}, // under the guard: the checked path on both sides
				{append(bytes.Clone(bad), padding...), 0},                     // the unchecked path meets it
				{append(bytes.Clone(minimal), append(bad, padding...)...), 1}, // and meets it second
			}
			for _, l := range layouts {
				got, err := diffDecodeTruncations(t, l.payload)
				switch {
				case !tc.ok:
					if !errors.Is(err, ErrShortFrame) || len(got) != l.index+1 {
						t.Fatalf("%s in varint %d: %d entities, err %v; want ErrShortFrame at entity %d",
							tc.name, k, len(got), err, l.index)
					}
				case err != nil:
					t.Fatalf("%s in varint %d: %v", tc.name, k, err)
				default:
					e := got[l.index]
					if v := nthVarint(&e, k); v != tc.value || e.Seat != 0x0708 || len(e.Expression) != 2 {
						t.Fatalf("%s in varint %d: decoded %+v, want the value %d", tc.name, k, e, tc.value)
					}
				}
			}
		}
	}
}

// TestEntityWireConstants pins the two entity-size constants to what the
// encoder writes, and the forged-count guard minEntityWire exists for to the
// Decoder: the refusal must come before the entity slice is allocated.
func TestEntityWireConstants(t *testing.T) {
	var w Writer
	(&EntityState{}).encode(&w)
	if w.Len() != minEntityWire {
		t.Errorf("minEntityWire = %d, the zero entity encodes in %d bytes", minEntityWire, w.Len())
	}
	widest := EntityState{Expression: make([]byte, MaxPayload)}
	for k := 0; k < 7; k++ {
		setVarint(&widest, k, math.MinInt64)
	}
	w = Writer{}
	referenceEntityEncode(&widest, &w)
	if fixed := w.Len() - MaxPayload - 3; fixed > maxEntityFixed {
		t.Errorf("maxEntityFixed = %d, the widest fixed part is %d bytes", maxEntityFixed, fixed)
	}

	// A snapshot of 100 minimal entities is accepted when its header says
	// 100 and refused when it says Remaining()/minEntityWire + 1.
	snapshotFrame := func(claimed uint64) []byte {
		var payload, frame Writer
		payload.UVarint(7)
		payload.UVarint(claimed)
		for i := 0; i < 100; i++ {
			(&EntityState{}).encode(&payload)
		}
		frame.U16(Magic)
		frame.U8(Version)
		frame.U8(uint8(TypeSnapshot))
		frame.BytesVar(payload.Bytes())
		frame.U32(crc32.ChecksumIEEE(frame.Bytes()))
		return frame.Bytes()
	}
	var dec Decoder
	if _, _, err := dec.Decode(snapshotFrame(100)); err != nil {
		t.Fatalf("honest entity count: %v", err)
	}
	forged := snapshotFrame(101)
	if _, _, err := dec.Decode(forged); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("forged entity count: err = %v, want ErrBadMessage", err)
	}
	if dec.snapshot.Entities != nil {
		t.Errorf("the Decoder kept %d entities of scratch from a refused frame", cap(dec.snapshot.Entities))
	}
	if raceEnabled {
		return // allocation counts mean nothing under -race
	}
	// Building the error is all a refusal may allocate: the same two wraps,
	// made here by hand, cost as many allocations as the refused Decode.
	n := uint64(101)
	wraps := testing.AllocsPerRun(100, func() {
		errSink = fmt.Errorf("decoding %v: %w", TypeSnapshot, fmt.Errorf("%w: snapshot claims %d entities", ErrBadMessage, n))
	})
	refused := testing.AllocsPerRun(100, func() {
		_, _, errSink = dec.Decode(forged)
	})
	if refused != wraps {
		t.Errorf("a refused forged count costs %v allocs, its error alone %v: something was allocated before the refusal", refused, wraps)
	}
}

var errSink error

// fuzzEntity builds an entity from the fuzzer's scalars: ids packs
// participant and home, quat the four components, tail seat and flags.
func fuzzEntity(ids uint64, varints [7]int64, quat uint64, expr []byte, tail uint32) EntityState {
	e := EntityState{Participant: ParticipantID(ids), Home: ClassroomID(ids >> 32), Expression: expr,
		Seat: uint16(tail), Flags: uint8(tail >> 16)}
	for k, v := range varints {
		setVarint(&e, k, v)
	}
	for i := range e.Pose.Quat {
		e.Pose.Quat[i] = int16(quat >> (16 * i))
	}
	return e
}

// FuzzEntityCodecMatchesReference is the differential test with the fuzzer
// choosing the cases: arbitrary payload bytes must decode to the same
// structs, offsets and error through both paths, and an entity of arbitrary
// field values must encode to the reference's bytes whatever capacity it is
// appended into (the top byte of tail picks the spare).
func FuzzEntityCodecMatchesReference(f *testing.F) {
	add := func(payload []byte, e *EntityState, spare uint32) {
		var quat uint64
		for i, q := range e.Pose.Quat {
			quat |= uint64(uint16(q)) << (16 * i)
		}
		f.Add(payload, uint64(e.Home)<<32|uint64(e.Participant), int64(e.CapturedAt),
			e.Pose.PosMM[0], e.Pose.PosMM[1], e.Pose.PosMM[2], e.VelMMS[0], e.VelMMS[1], e.VelMMS[2],
			quat, e.Expression, spare<<24|uint32(e.Flags)<<16|uint32(e.Seat))
	}
	for i, list := range seedEntityLists() {
		if len(list) > 0 {
			payload := referencePayload(list[:min(len(list), 8)])
			add(payload, &list[0], uint32(i))
			add(payload[:len(payload)-1], &list[len(list)-1], maxEntityFixed-1)
		}
	}
	sweep := sweepEntities()
	for i := 0; i+5 <= len(sweep); i += 35 {
		add(referencePayload(sweep[i:i+5]), &sweep[i+2], uint32(i))
	}
	for k := 0; k < 7; k++ {
		bad := hostileEntity(k, bytes.Repeat([]byte{0xFF}, 11))
		add(append(bad, make([]byte, maxEntityFixed)...), &sweep[k], 255)
	}
	f.Fuzz(func(t *testing.T, payload []byte, ids uint64, stamp, px, py, pz, vx, vy, vz int64, quat uint64, expr []byte, tail uint32) {
		diffDecode(t, payload, 0)
		e := fuzzEntity(ids, [7]int64{stamp, px, py, pz, vx, vy, vz}, quat, expr, tail)
		var w Writer
		referenceEntityEncode(&e, &w)
		checkEncode(t, &e, w.Bytes(), int(tail>>24))
		checkEncode(t, &e, w.Bytes(), maxEntityFixed+len(expr)+3)
	})
}

// wireShapedDelta is a delta shaped like classbench's traffic
// (protocol.bytes_per_entity 32.5–34 B): 36 entities with a 5-byte capture
// stamp, 2–3-byte positions, 1-byte velocities and exprLen bytes of
// expression each — 33 or 34 bytes an entity when exprLen is 0.
func wireShapedDelta(exprLen int) *Delta {
	d := &Delta{BaseTick: 360, Tick: 361}
	for i := 0; i < 36; i++ {
		e := EntityState{
			Participant: ParticipantID(i + 1), Home: 1,
			CapturedAt: 12*time.Second + time.Duration(i)*time.Millisecond,
			Pose:       WirePose{PosMM: [3]int64{int64(i-18) * 700, 1200, 9000}, Quat: [4]int16{32767, 0, -120, 0}},
			VelMMS:     [3]int64{40, 0, -30},
			Seat:       uint16(i),
		}
		if exprLen > 0 {
			e.Expression = bytes.Repeat([]byte{byte(i)}, exprLen)
		}
		d.Changed = append(d.Changed, e)
	}
	return d
}

// BenchmarkDecoderDeltaWire33 is the pooled receive path on traffic-shaped
// frames: expr=0 is what every classbench workload sends (0 allocs/op),
// expr=64 prices the checked tail reads (one expression copy per entity).
func BenchmarkDecoderDeltaWire33(b *testing.B) {
	for _, exprLen := range []int{0, 64} {
		b.Run(fmt.Sprintf("expr=%d", exprLen), func(b *testing.B) {
			frame, err := Encode(wireShapedDelta(exprLen))
			if err != nil {
				b.Fatal(err)
			}
			var dec Decoder
			b.ReportAllocs()
			b.SetBytes(int64(len(frame)))
			for i := 0; i < b.N; i++ {
				if _, _, err := dec.Decode(frame); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEncodeFrameDeltaWire33 is the pooled cohort-frame path on the same
// fixtures; expr=64 prices a reserve that has to cover an expression.
func BenchmarkEncodeFrameDeltaWire33(b *testing.B) {
	for _, exprLen := range []int{0, 64} {
		b.Run(fmt.Sprintf("expr=%d", exprLen), func(b *testing.B) {
			d := wireShapedDelta(exprLen)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f, err := EncodeFrame(d)
				if err != nil {
					b.Fatal(err)
				}
				f.Release()
			}
		})
	}
}
