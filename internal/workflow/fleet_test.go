package workflow

import (
	"testing"
	"time"

	"zipper/internal/control"
)

// fleetTestJobs is the heterogeneous tenant mix of the acceptance scenario:
// a steady normal-priority job, a latency-sensitive high-priority job, and a
// spill-heavy low-priority batch job that joins the running fleet late and
// floods its slice — the arrival the control plane must contain.
func fleetTestJobs() []FleetJob {
	noisy := FleetJob{
		Name: "noisy",
		Workload: Workload{
			Steps: 4, StepTime: 10 * time.Millisecond,
			BytesPerStep: 16 << 20, BlockBytes: 1 << 20,
			AnalyzePerByte: 50 * time.Nanosecond, // ~52ms/block: a huge backlog
		},
		P: 2, Q: 1,
		// The buffer guarantee keeps the noisy tenant's quota above the
		// spill high-water mark even where its stager is shared, so its
		// flood spills instead of merely queuing — the pressure source the
		// preemption pass must detect.
		Quota:        control.Quota{Priority: control.PriorityLow, BufferBlocks: 20},
		StartAfter:   60 * time.Millisecond,
		BufferBlocks: 8, MaxBatchBlocks: 4, DisableSteal: true,
	}
	mid := FleetJob{
		Name: "mid",
		Workload: Workload{
			Steps: 4, StepTime: 20 * time.Millisecond,
			BytesPerStep: 4 << 20, BlockBytes: 1 << 20,
			AnalyzePerByte: 5 * time.Nanosecond,
		},
		P: 2, Q: 1,
		Quota:        control.Quota{Priority: control.PriorityNormal},
		BufferBlocks: 8, MaxBatchBlocks: 4, DisableSteal: true,
	}
	quiet := FleetJob{
		Name: "quiet",
		Workload: Workload{
			Steps: 4, StepTime: 10 * time.Millisecond,
			BytesPerStep: 16 << 20, BlockBytes: 1 << 20,
			AnalyzePerByte: 10 * time.Nanosecond, // ~10ms/block: consumer-bound
		},
		P: 2, Q: 1,
		// A buffer guarantee pins the quiet tenant's per-stager quota at the
		// full buffer of its slice, so its admission floor survives sharing.
		Quota:        control.Quota{Priority: control.PriorityHigh, BufferBlocks: 24},
		BufferBlocks: 8, MaxBatchBlocks: 4, DisableSteal: true,
	}
	return []FleetJob{noisy, mid, quiet}
}

// fleetTestSpec shares 2 stagers among the 3 jobs, so tenant slices overlap
// and the fair-share split actually divides buffers.
func fleetTestSpec() FleetSpec {
	return FleetSpec{
		Machine:            testMachine(),
		Jobs:               fleetTestJobs(),
		Stagers:            2,
		StagerBufferBlocks: 24,
		StagingNodes:       2,
		Window:             2,
	}
}

// quietBaselineSpec is the quiet job alone on a private fleet sized like its
// fair share of the shared one (1 of the 2 stagers, same per-stager buffer) —
// the isolation yardstick: the shared run adds only interference, not
// capacity, so any stall blow-up is the other tenants' fault.
func quietBaselineSpec() FleetSpec {
	spec := fleetTestSpec()
	quiet := spec.Jobs[2]
	quiet.StartAfter = 0
	spec.Jobs = []FleetJob{quiet}
	spec.Stagers = 1
	return spec
}

// checkTenantAccounting holds the shared tier to each job's own producers:
// the tier admitted, for a job's tenant, exactly the blocks that job's
// producers relayed, and spilled no more than that. A tier that charges one
// tenant's blocks to another breaks the first, and usually the second.
func checkTenantAccounting(t *testing.T, name string, res FleetResult) {
	t.Helper()
	for _, j := range res.Jobs {
		if j.BlocksStaged != j.BlocksRelayed {
			t.Errorf("%s: job %s (tenant %d): the tier admitted %d of its blocks, its producers relayed %d",
				name, j.Name, j.Tenant, j.BlocksStaged, j.BlocksRelayed)
		}
		if j.BlocksSpilled > j.BlocksRelayed {
			t.Errorf("%s: job %s (tenant %d): %d blocks spilled of %d relayed",
				name, j.Name, j.Tenant, j.BlocksSpilled, j.BlocksRelayed)
		}
	}
}

// TestFleetMultiTenantIsolation is the acceptance scenario: three
// heterogeneous jobs share a fleet; the spill-heavy low-priority tenant is
// preempted, the latency-sensitive high-priority tenant's write-stall stays
// within 1.5x of its private-fleet baseline, and every stream terminates
// with zero blocks lost.
func TestFleetMultiTenantIsolation(t *testing.T) {
	res := RunFleet(fleetTestSpec())
	if !res.OK {
		t.Fatalf("fleet run failed: %s", res.Fail)
	}
	checkTenantAccounting(t, "shared", res)
	for _, j := range res.Jobs {
		if j.BlocksLost != 0 {
			t.Fatalf("job %s lost %d blocks", j.Name, j.BlocksLost)
		}
		if j.BlocksAnalyzed != j.BlocksWritten || j.BlocksWritten == 0 {
			t.Fatalf("job %s analyzed %d of %d written", j.Name, j.BlocksAnalyzed, j.BlocksWritten)
		}
		if j.End <= j.Start {
			t.Fatalf("job %s never finished: %+v", j.Name, j)
		}
	}
	noisy, quiet := res.Jobs[0], res.Jobs[2]
	if noisy.BlocksSpilled == 0 {
		t.Fatal("the noisy tenant never spilled — the scenario lost its pressure source")
	}
	if res.Preemptions == 0 || noisy.Preempted == 0 {
		t.Fatalf("the spill-heavy low-priority tenant was never preempted (%d fleet preemptions, noisy %d)",
			res.Preemptions, noisy.Preempted)
	}
	if quiet.Preempted != 0 {
		t.Fatalf("the high-priority tenant was preempted %d times", quiet.Preempted)
	}
	seen := map[string]bool{}
	noisyVictim := false
	for _, ev := range res.Events {
		seen[ev.Kind] = true
		if ev.Kind == "preempt" {
			if ev.Victim == quiet.Tenant {
				t.Fatalf("the high-priority tenant was a preemption victim: %+v", ev)
			}
			if ev.Victim == noisy.Tenant {
				noisyVictim = true
			}
		}
	}
	if seen["preempt"] && !noisyVictim {
		t.Fatal("preemptions fired but never against the noisy tenant")
	}
	for _, kind := range []string{"admit", "assign", "preempt", "finish"} {
		if !seen[kind] {
			t.Fatalf("control timeline has no %q event: %+v", kind, res.Events)
		}
	}

	base := RunFleet(quietBaselineSpec())
	if !base.OK {
		t.Fatalf("baseline run failed: %s", base.Fail)
	}
	checkTenantAccounting(t, "baseline", base)
	if base.Jobs[0].BlocksLost != 0 || base.Jobs[0].BlocksAnalyzed != base.Jobs[0].BlocksWritten {
		t.Fatalf("baseline run incomplete: %+v", base.Jobs[0])
	}
	limit := base.Jobs[0].WriteStall + base.Jobs[0].WriteStall/2
	if quiet.WriteStall > limit {
		t.Fatalf("quiet tenant stalled %v on the shared fleet, > 1.5x its private baseline %v",
			quiet.WriteStall, base.Jobs[0].WriteStall)
	}
}

// TestFleetDeterministic pins the multi-job run's simenv reproducibility:
// two runs of the same spec produce identical end-to-end times, per-job
// outcomes, and control-plane event timelines.
func TestFleetDeterministic(t *testing.T) {
	a := RunFleet(fleetTestSpec())
	b := RunFleet(fleetTestSpec())
	if !a.OK || !b.OK {
		t.Fatalf("runs failed: %v / %v", a.Fail, b.Fail)
	}
	if a.E2E != b.E2E || a.Preemptions != b.Preemptions || a.StagerNodeSeconds != b.StagerNodeSeconds {
		t.Fatalf("fleet runs diverged: %v/%d/%.3f vs %v/%d/%.3f",
			a.E2E, a.Preemptions, a.StagerNodeSeconds, b.E2E, b.Preemptions, b.StagerNodeSeconds)
	}
	for i := range a.Jobs {
		if a.Jobs[i] != b.Jobs[i] {
			t.Fatalf("job %d diverged:\n%+v\n%+v", i, a.Jobs[i], b.Jobs[i])
		}
	}
	if len(a.Events) != len(b.Events) {
		t.Fatalf("timelines diverged: %d vs %d events", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d diverged: %+v vs %+v", i, a.Events[i], b.Events[i])
		}
	}
}
