package core

import (
	"testing"

	"metaclass/internal/protocol"
)

// measureReplicationBytes drives a replicator over a churning store and
// returns total encoded bytes sent — the DESIGN.md §5 "snapshot-only vs
// delta" ablation. The snapshot-only side encodes the store's full snapshot
// every tick instead of the replicator's plan.
func measureReplicationBytes(t testing.TB, snapshotOnly bool, entities, ticks int) int {
	t.Helper()
	s := NewStore()
	r := NewReplicator(s, ReplConfig{})
	if err := r.AddPeer("p", nil); err != nil {
		t.Fatal(err)
	}
	s.BeginTick()
	for i := 0; i < entities; i++ {
		s.Upsert(ent(protocol.ParticipantID(i), 0))
	}
	var snap protocol.Snapshot
	total := 0
	for tick := 0; tick < ticks; tick++ {
		s.BeginTick()
		// Realistic churn: only a tenth of the class moves each tick.
		for i := 0; i < entities/10+1; i++ {
			id := protocol.ParticipantID((tick*7 + i) % entities)
			s.Upsert(ent(id, float64(tick)))
		}
		if !snapshotOnly {
			for _, pm := range r.PlanTick() {
				total += pm.Msg.Len()
				_ = r.Ack("p", s.Tick())
			}
			continue
		}
		s.SnapshotInto(nil, &snap)
		frame, err := protocol.AppendEncode(nil, &snap)
		if err != nil {
			t.Fatal(err)
		}
		total += len(frame)
	}
	return total
}

func TestAblationDeltaBeatsSnapshotOnly(t *testing.T) {
	snap := measureReplicationBytes(t, true, 100, 100)
	delta := measureReplicationBytes(t, false, 100, 100)
	t.Logf("snapshot-only=%d bytes, delta=%d bytes (%.1fx saving)",
		snap, delta, float64(snap)/float64(delta))
	// With 10% churn, deltas must save at least 3x.
	if delta*3 > snap {
		t.Errorf("delta replication saved only %.2fx, want >= 3x",
			float64(snap)/float64(delta))
	}
}

func BenchmarkAblationSnapshotOnly(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bytes := measureReplicationBytes(b, true, 100, 30)
		b.ReportMetric(float64(bytes)/30, "bytes/tick")
	}
}

func BenchmarkAblationDelta(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bytes := measureReplicationBytes(b, false, 100, 30)
		b.ReportMetric(float64(bytes)/30, "bytes/tick")
	}
}
