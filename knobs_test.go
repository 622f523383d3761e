package zipper

import (
	"reflect"
	"slices"
	"testing"
)

// TestPublicKnobs pins the configuration surface: every exported leaf field
// of Config and FleetConfig, by path. Every knob has to earn its place, so
// one added or removed shows up here as a one-line diff in review instead of
// widening the API unnoticed.
func TestPublicKnobs(t *testing.T) {
	for _, tc := range []struct {
		cfg  any
		want []string
	}{
		{Config{}, []string{
			"Producers", "Consumers", "SpoolDir", "BufferBlocks", "HighWater",
			"ConsumerBufferBlocks", "MaxBatchBlocks", "MaxBatchBytes", "Window", "TCPAddr",
			"Staging.Stagers", "Staging.BufferBlocks", "Staging.RoutePolicy", "Staging.Placement",
			"Staging.Elastic.Enabled", "Staging.Elastic.MinStagers", "Staging.Elastic.MaxStagers",
			"Staging.Elastic.GrowOccupancy", "Staging.Elastic.DrainOccupancy",
			"Staging.Elastic.Interval", "Staging.Elastic.Cooldown",
			"Staging.Reduce.Operator", "Staging.Reduce.OnPressure", "Staging.Reduce.ModelRatio",
			"Staging.Reduce.Workers", "Staging.RingDepth",
			"Fault.Enabled", "Fault.Heartbeat", "Fault.LeaseTTL", "Fault.MaxRecoveries",
			"Preserve", "DisableSteal",
			"Quota.BufferBlocks", "Quota.Share", "Quota.Priority",
		}},
		{FleetConfig{}, []string{
			"Stagers", "StagerBufferBlocks", "SpoolDir", "MaxJobs", "MaxConsumers",
			"MaxBatchBlocks", "MaxBatchBytes", "Window", "RingDepth", "Reconcile", "PreemptOccupancy",
		}},
	} {
		if got := knobs(reflect.TypeOf(tc.cfg), ""); !slices.Equal(got, tc.want) {
			t.Errorf("%T has %d knobs, want %d:\n got  %q\n want %q", tc.cfg, len(got), len(tc.want), got, tc.want)
		}
	}
}

// knobs lists the exported leaf fields of struct type t, descending into
// struct-typed fields, as dotted paths under prefix.
func knobs(t reflect.Type, prefix string) []string {
	var out []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		switch {
		case !f.IsExported():
		case f.Type.Kind() == reflect.Struct:
			out = append(out, knobs(f.Type, prefix+f.Name+".")...)
		default:
			out = append(out, prefix+f.Name)
		}
	}
	return out
}
