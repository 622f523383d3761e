package exp

import (
	"fmt"
	"strings"
	"time"

	"zipper/internal/control"
	"zipper/internal/workflow"
)

// FleetScenario is the shared-fleet scenario rendered by `zippertrace
// fleet` and measured by TestFleetConsolidationSaving: a steady
// normal-priority job and a latency-sensitive high-priority job run from
// t=0, then a spill-heavy low-priority batch job joins the live fleet and
// floods its slice. steps scales every job's workload length.
func FleetScenario(steps int) workflow.FleetSpec {
	noisy := workflow.FleetJob{
		Name: "noisy",
		Workload: workflow.Workload{
			Steps: steps, StepTime: 10 * time.Millisecond,
			BytesPerStep: 16 << 20, BlockBytes: 1 << 20,
			// ~21ms/block drain against a 0.6ms/block write rate: a huge
			// backlog, but a runtime comparable to the other jobs' so the
			// consolidation measurement reflects multiplexing, not one
			// straggler holding the tier.
			AnalyzePerByte: 20 * time.Nanosecond,
		},
		P: 2, Q: 1,
		Quota:        control.Quota{Priority: control.PriorityLow, BufferBlocks: 20},
		StartAfter:   60 * time.Millisecond,
		BufferBlocks: 8, MaxBatchBlocks: 4, DisableSteal: true,
	}
	mid := workflow.FleetJob{
		Name: "mid",
		Workload: workflow.Workload{
			Steps: steps, StepTime: 20 * time.Millisecond,
			BytesPerStep: 4 << 20, BlockBytes: 1 << 20,
			AnalyzePerByte: 5 * time.Nanosecond,
		},
		P: 2, Q: 1,
		Quota:        control.Quota{Priority: control.PriorityNormal},
		BufferBlocks: 8, MaxBatchBlocks: 4, DisableSteal: true,
	}
	quiet := workflow.FleetJob{
		Name: "quiet",
		Workload: workflow.Workload{
			Steps: steps, StepTime: 10 * time.Millisecond,
			BytesPerStep: 16 << 20, BlockBytes: 1 << 20,
			AnalyzePerByte: 10 * time.Nanosecond,
		},
		P: 2, Q: 1,
		Quota:        control.Quota{Priority: control.PriorityHigh, BufferBlocks: 24},
		BufferBlocks: 8, MaxBatchBlocks: 4, DisableSteal: true,
	}
	return workflow.FleetSpec{
		Machine:            workflow.Machine{CoresPerNode: 4, LinkBandwidth: 2e9, LinkLatency: 2 * time.Microsecond, NodesPerLeaf: 8, MTU: 512 << 10, OSTs: 2, OSTBandwidth: 1e9, MemBandwidth: 10e9},
		Jobs:               []workflow.FleetJob{mid, quiet, noisy},
		Stagers:            2,
		StagerBufferBlocks: 24,
		StagingNodes:       2,
		Window:             2,
		Sample:             10 * time.Millisecond,
	}
}

// FleetTimeline renders a multi-job fleet run's per-tenant share/occupancy
// history plus the control plane's event log. The chart has one row per
// tenant: each column is one sample tick, a digit is the tenant's buffer
// occupancy in tenths of its current quota (0 = idle, 9 = pressed against
// its share), '.' is admitted-but-empty, space is not admitted, and '!'
// marks a tick in which the tenant was a preemption victim. Watching a row's
// quota shrink in the event log while its digits stay high is the fair-share
// squeeze; digits collapsing after '!' is the preemption taking hold.
func FleetTimeline(res workflow.FleetResult) string {
	var b strings.Builder
	if len(res.Samples) == 0 {
		return "fleet: no samples recorded (spec.Sample off)"
	}
	tick := res.Samples[len(res.Samples)-1].At
	if len(res.Samples) > 1 {
		tick = res.Samples[1].At - res.Samples[0].At
	}
	// Victim ticks per tenant.
	victims := map[int]map[int]bool{}
	for _, ev := range res.Events {
		if ev.Kind != "preempt" || tick <= 0 {
			continue
		}
		i := int(ev.At / tick)
		if victims[ev.Victim] == nil {
			victims[ev.Victim] = map[int]bool{}
		}
		victims[ev.Victim][i] = true
	}
	// Downsample to a terminal-friendly width: each printed column covers
	// `per` ticks and shows the worst (highest-pressure) state inside it.
	const maxCols = 110
	per := (len(res.Samples) + maxCols - 1) / maxCols
	fmt.Fprintf(&b, "per-tenant occupancy/quota timeline (one column per %v):\n", tick*time.Duration(per))
	rank := func(c byte) int {
		switch {
		case c == '!':
			return 3
		case c >= '0' && c <= '9':
			return 2
		case c == '.':
			return 1
		}
		return 0
	}
	for _, j := range res.Jobs {
		row := make([]byte, len(res.Samples))
		for i, s := range res.Samples {
			if j.Tenant >= len(s.Tenants) || !s.Tenants[j.Tenant].Active {
				row[i] = ' '
				continue
			}
			ts := s.Tenants[j.Tenant]
			switch {
			case victims[j.Tenant][i]:
				row[i] = '!'
			case ts.QuotaBlocks <= 0 || ts.Resident <= 0:
				row[i] = '.'
			default:
				d := ts.Resident * 9 / ts.QuotaBlocks
				if d > 9 {
					d = 9
				}
				row[i] = byte('0' + d)
			}
		}
		var packed []byte
		for i := 0; i < len(row); i += per {
			best := row[i]
			for k := i + 1; k < i+per && k < len(row); k++ {
				if r := rank(row[k]); r > rank(best) || (r == rank(best) && row[k] > best) {
					best = row[k]
				}
			}
			packed = append(packed, best)
		}
		fmt.Fprintf(&b, "  %-7s |%s|\n", j.Name, packed)
	}
	b.WriteString("control events:\n")
	names := map[int]string{}
	for _, j := range res.Jobs {
		names[j.Tenant] = j.Name
	}
	for _, ev := range res.Events {
		fmt.Fprintf(&b, "  %8.1fms  %-7s %s", float64(ev.At)/1e6, ev.Kind, names[ev.Tenant])
		switch ev.Kind {
		case "assign":
			fmt.Fprintf(&b, "  stagers=%d quota=%d", ev.Stagers, ev.Blocks)
		case "preempt":
			fmt.Fprintf(&b, "  victim=%s", names[ev.Victim])
		}
		b.WriteByte('\n')
	}
	return strings.TrimRight(b.String(), "\n")
}

// RunFleetTrace runs the shared-fleet scenario and renders the per-tenant
// share/occupancy timeline: the quiet high-priority tenant's slice is
// untouched while the late-joining noisy tenant floods, spills, is
// preempted, and has its quota squeezed to near-synchronous transfer.
func RunFleetTrace(steps int) TraceFigure {
	res := workflow.RunFleet(FleetScenario(steps))
	if !res.OK {
		return TraceFigure{Title: "Fleet trace", Detail: "crash: " + res.Fail}
	}
	var sum strings.Builder
	fmt.Fprintf(&sum, "fleet: %d jobs over 2 shared stagers, %d preemptions, %.2f stager-node-seconds\n",
		len(res.Jobs), res.Preemptions, res.StagerNodeSeconds)
	for _, j := range res.Jobs {
		fmt.Fprintf(&sum, "  %-7s prio-join=%-8v written=%-4d spilled=%-3d lost=%d stall=%-10v preempted=%d\n",
			j.Name, j.Start, j.BlocksWritten, j.BlocksSpilled, j.BlocksLost, j.WriteStall, j.Preempted)
	}
	sum.WriteString(FleetTimeline(res))
	return TraceFigure{Title: "Multi-job control plane: admission, fair share, preemption", Detail: sum.String()}
}
