package zipper

import (
	"reflect"
	"slices"
	"testing"

	"zipper/internal/control"
	"zipper/internal/core"
	"zipper/internal/elastic"
	"zipper/internal/fault"
	"zipper/internal/reduce"
	"zipper/internal/staging"
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
			"ConsumerBufferBlocks", "MaxBatchBlocks", "Window", "TCPAddr",
			"Staging.Stagers", "Staging.BufferBlocks", "Staging.RoutePolicy", "Staging.Placement",
			"Staging.Elastic.Enabled", "Staging.Elastic.MinStagers", "Staging.Elastic.MaxStagers",
			"Staging.Elastic.Interval", "Staging.Elastic.Cooldown",
			"Staging.Reduce.Operator", "Staging.Reduce.OnPressure", "Staging.Reduce.Workers",
			"Staging.RingDepth",
			"Fault.Enabled", "Fault.Heartbeat", "Fault.LeaseTTL",
			"Preserve", "DisableSteal",
			"Quota.BufferBlocks", "Quota.Priority",
		}},
		{FleetConfig{}, []string{
			"Stagers", "StagerBufferBlocks", "SpoolDir", "MaxJobs", "MaxConsumers", "MaxBatchBlocks",
		}},
	} {
		if got := knobs(reflect.TypeOf(tc.cfg), ""); !slices.Equal(got, tc.want) {
			t.Errorf("%T has %d knobs, want %d:\n got  %q\n want %q", tc.cfg, len(got), len(tc.want), got, tc.want)
		}
	}
}

// TestInternalKnobs pins the internal configuration surfaces the assembler
// fills in, field by field at the top level: an internal knob added or
// removed shows up here as a one-line diff in review too.
func TestInternalKnobs(t *testing.T) {
	for _, tc := range []struct {
		cfg  any
		want []string
	}{
		{core.Config{}, []string{
			"BufferBlocks", "HighWater", "ConsumerBufferBlocks", "MaxBatchBlocks", "Mode", "RoutePolicy",
			"Adaptive", "NewRouter", "StagerLevel", "Directory", "ConsumerDirectory", "Reduce",
			"ReducePipeline", "Recycler", "DisableSteal", "Recorder",
		}},
		{staging.Config{}, []string{
			"BufferBlocks", "MaxBatchBlocks", "Producers", "Managed", "Reduce", "Pipeline", "Recorder",
			"Tenants", "Tenant", "Journal", "Heartbeat", "HeartbeatInterval", "Unlease",
		}},
		{elastic.Config{}, []string{"Enabled", "MinStagers", "MaxStagers", "Interval", "Cooldown"}},
		{fault.Config{}, []string{"Enabled", "Heartbeat", "LeaseTTL"}},
		{control.Config{}, []string{"MaxTenants"}},
		{reduce.Config{}, []string{"Operator", "OnPressure", "Workers"}},
	} {
		typ := reflect.TypeOf(tc.cfg)
		var got []string
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				got = append(got, f.Name)
			}
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%v has %d fields, want %d:\n got  %q\n want %q", typ, len(got), len(tc.want), got, tc.want)
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
