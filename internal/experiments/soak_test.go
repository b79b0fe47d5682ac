package experiments

import (
	"testing"
)

// TestE13SoakFlatness is the long-soak gate over the netsim backend: ≥20
// compressed churn epochs at E11 scale (storm-8 cycles), post-GC HeapAlloc
// in the final quartile within 10% of the epoch-3 baseline, zero live frames
// after drain, and the netsim host/link/delivery tables back at their
// pre-churn baseline after every epoch.
func TestE13SoakFlatness(t *testing.T) {
	epochs := soakEpochs
	if testing.Short() {
		epochs = 6
	}
	res := runSoak(42, epochs)
	if res.err != nil {
		t.Fatal(res.err)
	}
	if base, flat := res.flat(); !flat {
		for i, ep := range res.epochs {
			t.Logf("epoch %2d: heap=%d KB frames=%d tables=%+v", i+1, res.heaps[i]/1024, ep.frames, ep.tables)
		}
		t.Fatalf("heap not flat: epoch-3 baseline %d KB, final quartile exceeds +10%%", base/1024)
	}
	for i, ep := range res.epochs {
		if ep.tables.Hosts != res.baseline.Hosts || ep.tables.Links != res.baseline.Links {
			t.Fatalf("epoch %d: netsim tables grew: %+v, pre-churn baseline %+v", i+1, ep.tables, res.baseline)
		}
	}
	if res.leaked != 0 {
		t.Fatalf("%d frames still live after stop and drain", res.leaked)
	}
	if res.final.Inflight != 0 {
		t.Fatalf("%d deliveries still in flight after drain", res.final.Inflight)
	}
	if res.final.PooledDeliveries != res.final.DeliveriesAllocated {
		t.Fatalf("delivery pool holds %d of %d allocated: some are captive",
			res.final.PooledDeliveries, res.final.DeliveriesAllocated)
	}
}
