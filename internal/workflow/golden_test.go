package workflow

import (
	"fmt"
	"strings"
	"testing"

	"zipper/internal/core"
	"zipper/internal/place"
	"zipper/internal/reduce"
)

// The other simenv pins in this package compare two runs of the same build
// (a feature off against its zero value, a run against its repeat), so a
// change that shifts both sides passes them. These are absolute: every
// fingerprint below was printed by the tree before internal/assembly
// existed, and a wiring change that moves a virtual nanosecond, reorders two
// equal-timestamp events or loses a message fails here.

//
// One re-record since, PR 22: nine rows, and no e2e among the plain ones.
// The six fault rows: the journal stopped writing every admitted block ahead
// to the simulated PFS (it holds resident blocks by reference now and logs
// only what a stager evicts), so admission is no longer delayed by an append
// and a fault-on run ends when the fault-off run does — fault-elastic/kill@4,
// whose kill epoch is never reached, has the "elastic" row's e2e to the
// nanosecond. Three plain rows, elastic and the two skewed ones, moved in
// their counts only: a stager whose consumer is alive takes its first
// overflow at half the spill threshold (Stager.spillFromLocked), the scaler
// and the placement policy read that overflow a few milliseconds earlier,
// and a handful of blocks take another member of the pool. CHANGES.md lists
// old → new for each.

// fingerprint is the part of a Result a wiring change can move.
func fingerprint(r Result) string {
	if !r.OK {
		return "FAIL " + r.Fail
	}
	return fmt.Sprintf("e2e=%d msgs=%d sent=%d relayed=%d stolen=%d analyzed=%d lost=%d spills=%d scale=%d evict=%d replayed=%d stagers=%v",
		int64(r.E2E), r.Messages, r.BlocksSent, r.BlocksRelayed, r.BlocksStolen, r.BlocksAnalyzed,
		r.BlocksLost, r.StagerSpills, len(r.ScaleEvents), r.Evictions, r.ReplayedBlocks, r.StagerRelayed)
}

// fleetFingerprint is the same for a multi-job run: the tier's totals, then
// one clause per job.
func fleetFingerprint(r FleetResult) string {
	if !r.OK {
		return "FAIL " + r.Fail
	}
	var b strings.Builder
	fmt.Fprintf(&b, "e2e=%d preempt=%d events=%d spills=%d stagers=%v",
		int64(r.E2E), r.Preemptions, len(r.Events), r.StagerSpills, r.StagerRelayed)
	for _, j := range r.Jobs {
		fmt.Fprintf(&b, " | %s t%d end=%d written=%d analyzed=%d lost=%d sent=%d relayed=%d stolen=%d spilled=%d preempted=%d",
			j.Name, j.Tenant, int64(j.End), j.BlocksWritten, j.BlocksAnalyzed, j.BlocksLost,
			j.BlocksSent, j.BlocksRelayed, j.BlocksStolen, j.BlocksSpilled, j.Preempted)
	}
	return b.String()
}

func TestGoldenZipper(t *testing.T) {
	with := func(spec Spec, edit func(*Spec)) Spec {
		edit(&spec)
		return spec
	}
	for _, tc := range []struct {
		name string
		spec Spec
		want string
	}{
		{"direct", testSpec(), "e2e=138051672 msgs=200 sent=192 relayed=0 stolen=0 analyzed=192 lost=0 spills=0 scale=0 evict=0 replayed=0 stagers=[]"},
		{"staging/in-situ", with(stagingTestSpec(), func(s *Spec) { s.Zipper.RoutePolicy = core.RouteDirect }), "e2e=4038773913 msgs=72 sent=118 relayed=0 stolen=74 analyzed=192 lost=0 spills=0 scale=0 evict=0 replayed=0 stagers=[]"},
		{"staging/in-transit", with(stagingTestSpec(), func(s *Spec) { s.Zipper.RoutePolicy = core.RouteStaging }), "e2e=4039314265 msgs=196 sent=0 relayed=192 stolen=0 analyzed=192 lost=0 spills=74 scale=0 evict=0 replayed=0 stagers=[192]"},
		{"staging/hybrid", with(stagingTestSpec(), func(s *Spec) { s.Zipper.RoutePolicy = core.RouteHybrid }), "e2e=4038773913 msgs=196 sent=47 relayed=145 stolen=0 analyzed=192 lost=0 spills=76 scale=0 evict=0 replayed=0 stagers=[145]"},
		{"staging/adaptive", with(stagingTestSpec(), func(s *Spec) { s.Zipper.RoutePolicy = core.RouteAdaptive }), "e2e=4038773913 msgs=173 sent=50 relayed=129 stolen=13 analyzed=192 lost=0 spills=66 scale=0 evict=0 replayed=0 stagers=[129]"},
		{"elastic", elasticTestSpec(), "e2e=4039314265 msgs=196 sent=0 relayed=192 stolen=0 analyzed=192 lost=0 spills=40 scale=4 evict=0 replayed=0 stagers=[150 0 21 21]"},
		{"skewed/least-occupancy", with(skewedSpec(), func(s *Spec) { s.Placement = place.KindLeastOccupancy }), "e2e=14016602275 msgs=440 sent=0 relayed=432 stolen=0 analyzed=432 lost=0 spills=172 scale=0 evict=0 replayed=0 stagers=[137 109 94 92]"},
		{"fault/kill@1", with(faultTestSpec(), func(s *Spec) { s.FaultKillEpoch = 1 }), "e2e=4040374809 msgs=196 sent=0 relayed=192 stolen=0 analyzed=192 lost=0 spills=20 scale=0 evict=1 replayed=0 stagers=[0 48 48 96]"},
		{"fault/kill@2", with(faultTestSpec(), func(s *Spec) { s.FaultKillEpoch = 2 }), "e2e=4040374809 msgs=196 sent=0 relayed=192 stolen=0 analyzed=192 lost=0 spills=20 scale=0 evict=1 replayed=0 stagers=[0 48 48 96]"},
		{"fault-elastic/kill@1", with(faultElasticSpec(), func(s *Spec) { s.FaultKillEpoch = 1 }), "e2e=4039314265 msgs=196 sent=0 relayed=192 stolen=0 analyzed=192 lost=0 spills=27 scale=4 evict=1 replayed=0 stagers=[0 134 43 15]"},
		{"fault-elastic/kill@2", with(faultElasticSpec(), func(s *Spec) { s.FaultKillEpoch = 2 }), "e2e=4039314265 msgs=196 sent=0 relayed=192 stolen=0 analyzed=192 lost=0 spills=23 scale=4 evict=1 replayed=26 stagers=[76 72 44 0]"},
		{"fault-elastic/kill@3", with(faultElasticSpec(), func(s *Spec) { s.FaultKillEpoch = 3 }), "e2e=4039314265 msgs=196 sent=0 relayed=192 stolen=0 analyzed=192 lost=0 spills=7 scale=4 evict=1 replayed=46 stagers=[104 58 30 0]"},
		{"fault-elastic/kill@4", with(faultElasticSpec(), func(s *Spec) { s.FaultKillEpoch = 4 }), "e2e=4039314265 msgs=196 sent=0 relayed=192 stolen=0 analyzed=192 lost=0 spills=27 scale=2 evict=0 replayed=0 stagers=[134 43 15]"},
		{"reduce/producer-side", with(stagingTestSpec(), func(s *Spec) {
			s.Zipper.RoutePolicy = core.RouteStaging
			s.Zipper.Reduce = reduce.Config{Operator: reduce.Compress}
		}), "e2e=4037596539 msgs=196 sent=0 relayed=192 stolen=0 analyzed=192 lost=0 spills=74 scale=0 evict=0 replayed=0 stagers=[192]"},
		{"reduce/on-pressure", with(stagingTestSpec(), func(s *Spec) {
			s.Zipper.RoutePolicy = core.RouteStaging
			s.Zipper.Reduce = reduce.Config{Operator: reduce.Compress, OnPressure: true}
		}), "e2e=4039314265 msgs=196 sent=0 relayed=192 stolen=0 analyzed=192 lost=0 spills=66 scale=0 evict=0 replayed=0 stagers=[192]"},
	} {
		if got := fingerprint(RunZipper(tc.spec)); got != tc.want {
			t.Errorf("%s:\n got  %s\n want %s", tc.name, got, tc.want)
		}
	}
}

func TestGoldenFleet(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec FleetSpec
		want string
	}{
		{"three-tenants", fleetTestSpec(), "e2e=6908522593 preempt=3 events=84 spills=145 stagers=[172 116] | noisy t2 end=6017232993 written=128 analyzed=128 lost=0 sent=0 relayed=128 stolen=0 spilled=48 preempted=3 | mid t0 end=336982977 written=32 analyzed=32 lost=0 sent=0 relayed=32 stolen=0 spilled=97 preempted=0 | quiet t1 end=1166254145 written=128 analyzed=128 lost=0 sent=0 relayed=128 stolen=0 spilled=0 preempted=0"},
		{"quiet-alone", quietBaselineSpec(), "e2e=1344512065 preempt=0 events=3 spills=50 stagers=[128] | quiet t0 end=1166254145 written=128 analyzed=128 lost=0 sent=0 relayed=128 stolen=0 spilled=50 preempted=0"},
	} {
		if got := fleetFingerprint(RunFleet(tc.spec)); got != tc.want {
			t.Errorf("%s:\n got  %s\n want %s", tc.name, got, tc.want)
		}
	}
}
