package metaclass

import (
	"reflect"
	"testing"

	"metaclass/classroom"
	"metaclass/internal/client"
	"metaclass/internal/cloud"
	"metaclass/internal/core"
	"metaclass/internal/edge"
	"metaclass/internal/endpoint"
	"metaclass/internal/geo"
	"metaclass/internal/interest"
	"metaclass/internal/netsim"
	"metaclass/internal/node"
	"metaclass/internal/render"
	"metaclass/internal/rig"
	"metaclass/internal/sensors"
	"metaclass/internal/video"
)

// TestOptionCensus pins the number of exported fields of every config struct
// in the module. Each field is a value some caller may set independently, so
// each one multiplies the configurations the tests and the benchmark would
// have to cover; a new knob therefore arrives with its number edited here, in
// the diff that argues two callers need different values. A config struct
// this table does not list is not seen: add it with the struct.
func TestOptionCensus(t *testing.T) {
	total := 0
	for _, c := range []struct {
		cfg  any
		want int
	}{
		{classroom.Config{}, 6},
		{client.VRConfig{}, 4},
		{cloud.Config{}, 5},
		{cloud.RelayConfig{}, 3},
		{core.ReplConfig{}, 1},
		{edge.Config{}, 3},
		{endpoint.Config{}, 3},
		{geo.Config{}, 4},
		{interest.Policy{}, 1},
		{netsim.LinkConfig{}, 5},
		{node.Config{}, 2},
		{render.PipelineConfig{}, 1},
		{rig.Config{}, 3},
		{sensors.HeadsetConfig{}, 2},
		{sensors.RoomSensorConfig{}, 2},
		{video.StreamConfig{}, 2},
	} {
		typ := reflect.TypeOf(c.cfg)
		got := 0
		for i := range typ.NumField() {
			if typ.Field(i).IsExported() {
				got++
			}
		}
		if got != c.want {
			t.Errorf("%v has %d exported fields, pinned at %d", typ, got, c.want)
		}
		total += got
	}
	t.Logf("%d options across the module", total)
}
