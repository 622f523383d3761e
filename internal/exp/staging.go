package exp

import (
	"fmt"
	"strings"
	"time"

	"zipper/internal/apps/synthetic"
	"zipper/internal/core"
	"zipper/internal/trace"
	"zipper/internal/transport"
	"zipper/internal/workflow"
)

// StagingRow is one coupling mode of the staging sweep: the same
// consumer-bound workload run in-situ (two channels), in-transit (all data
// through stager ranks), hybrid (per-batch routing from live backpressure),
// and on the DataSpaces staging-server baseline.
type StagingRow struct {
	Mode string
	OK   bool
	Fail string
	E2E  time.Duration
	// WriteStall is the longest any producer's Write sat blocked on a full
	// buffer — the number in-situ coupling loses when the consumer lags.
	WriteStall time.Duration
	// ProducerWall is when the last producer finished handing off its data.
	ProducerWall time.Duration
	// BlocksSent counts direct-path blocks, BlocksRelayed staging-tier
	// blocks, and ViaDisk blocks stolen through the file system.
	BlocksSent, BlocksRelayed, ViaDisk int64
	// StagerSpills counts blocks the staging tier overflowed to its own
	// spill partitions while absorbing the burst.
	StagerSpills int64
	Messages     int64
}

// stagingSpec builds the consumer-bound workload of the staging comparison:
// the analysis deliberately runs behind generation, which is the regime the
// in-transit tier exists for.
func stagingSpec(app string, producers, steps int) workflow.Spec {
	var spec workflow.Spec
	switch app {
	case "lbm", "cfd":
		spec = CFDBridges(steps)
		if producers > 0 {
			spec.P, spec.Q = producers, producers/2
		}
		// Double the per-byte analysis cost: the consumer now clearly lags
		// one step behind (Figure 2's regime rather than Figure 3's).
		spec.Workload.AnalyzePerByte *= 2
	default:
		spec = Synthetic(synthetic.Linear, 1<<20, producers)
		if steps > 0 {
			spec.Workload.Steps = steps
		}
		spec.Workload.AnalyzePerByte *= 4
	}
	spec.Zipper.BufferBlocks = 16
	spec.Zipper.MaxBatchBlocks = 4
	spec.Stagers = spec.StagingNodes
	spec.StagerBufferBlocks = 256
	return spec
}

// RunStagingSweep compares the three original Zipper routing modes and the
// DataSpaces baseline on one consumer-bound workload ("synthetic" or
// "lbm"). Hybrid routing should show in-situ's throughput with a fraction
// of its WriteStall and far fewer ViaDisk blocks than the steal-heavy
// in-situ run — while pure in-transit pays the extra hop for everything.
func RunStagingSweep(app string, producers, steps int) []StagingRow {
	return routingSweep(app, producers, steps,
		[]core.RoutePolicy{core.RouteDirect, core.RouteStaging, core.RouteHybrid})
}

// RunAdaptiveSweep is RunStagingSweep plus the closed-loop adaptive
// controller: the same consumer-bound workload run in-situ, in-transit,
// hybrid, adaptive, and on the DataSpaces staging-server baseline. Adaptive
// routing should match or beat hybrid on producer stall — it shifts the
// split before the window credit runs dry instead of reacting send by send.
func RunAdaptiveSweep(app string, producers, steps int) []StagingRow {
	return routingSweep(app, producers, steps,
		[]core.RoutePolicy{core.RouteDirect, core.RouteStaging, core.RouteHybrid, core.RouteAdaptive})
}

// routingSweep runs one row per routing mode plus the DataSpaces baseline.
func routingSweep(app string, producers, steps int, modes []core.RoutePolicy) []StagingRow {
	var rows []StagingRow
	for _, mode := range modes {
		spec := stagingSpec(app, producers, steps)
		spec.Zipper.RoutePolicy = mode
		if mode == core.RouteDirect {
			spec.Stagers = 0
		}
		res := workflow.RunZipper(spec)
		rows = append(rows, StagingRow{
			Mode:          mode.String(),
			OK:            res.OK,
			Fail:          res.Fail,
			E2E:           res.E2E,
			WriteStall:    res.ProducerStall,
			ProducerWall:  res.ProducerWallClock,
			BlocksSent:    res.BlocksSent,
			BlocksRelayed: res.BlocksRelayed,
			ViaDisk:       res.BlocksStolen,
			StagerSpills:  res.StagerSpills,
			Messages:      res.Messages,
		})
	}
	spec := stagingSpec(app, producers, steps)
	base := workflow.RunBaseline(spec, transport.NewDataSpaces(false))
	rows = append(rows, StagingRow{
		Mode:         base.Method,
		OK:           base.OK,
		Fail:         base.Fail,
		E2E:          base.E2E,
		WriteStall:   base.ProducerStall,
		ProducerWall: base.E2E,
	})
	return rows
}

// RoutingSplitTimeline renders the three-way channel split over time from a
// recorded trace: the run is cut into `buckets` equal slices and each cell
// of the first row shows, as a decile digit, the share of producer sender
// batches that took the staging relay in that slice; the second row shows the
// share of the slice's transfers (sender batches plus the writer threads'
// steals) that went through the file system. It is the zippertrace view of
// the flow controller's behavior — a reactive policy flips cell to cell where
// the closed loop holds a plateau and relaxes after the burst, and a disk
// channel the controller has priced out shows as lone probes.
func RoutingSplitTimeline(spans []trace.Span, buckets int) string {
	if buckets < 1 {
		buckets = 32
	}
	var end time.Duration
	for _, sp := range spans {
		if strings.HasPrefix(sp.Proc, "zprod.") && sp.End > end {
			end = sp.End
		}
	}
	if end == 0 {
		return "routing split: no sender activity recorded"
	}
	direct := make([]int, buckets)
	relay := make([]int, buckets)
	steal := make([]int, buckets)
	for _, sp := range spans {
		if !strings.HasPrefix(sp.Proc, "zprod.") {
			continue
		}
		b := int(int64(sp.Start) * int64(buckets) / int64(end))
		if b >= buckets {
			b = buckets - 1
		}
		switch {
		case strings.HasSuffix(sp.Proc, ".sender") && sp.State == "send":
			direct[b]++
		case strings.HasSuffix(sp.Proc, ".sender") && sp.State == "relay":
			relay[b]++
		case strings.HasSuffix(sp.Proc, ".writer") && sp.State == "steal":
			steal[b]++
		}
	}
	decile := func(part, whole int) byte {
		d := 10 * part / whole
		if d > 9 {
			d = 9
		}
		return byte('0' + d)
	}
	var net, disk strings.Builder
	for b := 0; b < buckets; b++ {
		sent := direct[b] + relay[b]
		if sent == 0 {
			net.WriteByte('-')
		} else {
			net.WriteByte(decile(relay[b], sent))
		}
		switch {
		case sent+steal[b] == 0:
			disk.WriteByte('-')
		case steal[b] == 0:
			disk.WriteByte('.')
		default:
			disk.WriteByte(decile(steal[b], sent+steal[b]))
		}
	}
	return fmt.Sprintf("routing split over time (staging share per %.0fms slice, 0=all direct, 9=all relay, -=idle):\n  [%s]\n"+
		"disk share of the same slices (writer steals among all transfers, .=none, 0=under a tenth, 9=all stolen):\n  [%s]",
		float64(end)/float64(buckets)/1e6, net.String(), disk.String())
}

// FormatStaging renders the staging sweep.
func FormatStaging(app string, rows []StagingRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "In-situ vs in-transit vs hybrid routing (%s, consumer-bound)\n", app)
	fmt.Fprintf(&b, "  %-12s | %9s %9s %10s %10s %10s %9s\n",
		"mode", "e2e", "stall", "direct", "relayed", "via disk", "spills")
	for _, r := range rows {
		if !r.OK {
			fmt.Fprintf(&b, "  %-12s | crash: %s\n", r.Mode, r.Fail)
			continue
		}
		fmt.Fprintf(&b, "  %-12s | %8.1fs %8.1fs %10d %10d %10d %9d\n",
			r.Mode, r.E2E.Seconds(), r.WriteStall.Seconds(),
			r.BlocksSent, r.BlocksRelayed, r.ViaDisk, r.StagerSpills)
	}
	return b.String()
}

// RunStagingTrace renders a hybrid-routing run with the stager threads'
// activity visible next to the simulation and analysis rows — the staging
// tier's counterpart of the paper's runtime-thread trace views.
func RunStagingTrace(steps int) TraceFigure {
	spec := stagingSpec("cfd", 8, steps)
	spec.P, spec.Q = 2, 1
	spec.Stagers = 1
	spec.Zipper.RoutePolicy = core.RouteHybrid
	spec.Trace = true
	res := workflow.RunZipper(spec)
	if !res.OK {
		return TraceFigure{Title: "Staging trace", Detail: "crash: " + res.Fail}
	}
	g := res.Rec.Gantt(trace.GanttOptions{
		Width: 96,
		Procs: []string{
			"sim.0", "zprod.0.sender",
			"zstage.0.receiver", "zstage.0.forwarder", "zstage.0.spiller",
			"ana.0",
		},
		Symbols: map[string]rune{
			"compute": 'C', "send": 's', "relay": 'R',
			"recv": 'r', "forward": 'F', "spill": 'S', "unspill": 'u',
			"analyze": 'A', "stall": '#', "step": ' ', "MPI_Sendrecv": 'm',
		},
	})
	det := fmt.Sprintf(
		"hybrid routing: %d direct, %d relayed, %d via disk, %d stager spills within e2e %.2fs (stall %.2fs)\n%s",
		res.BlocksSent, res.BlocksRelayed, res.BlocksStolen, res.StagerSpills,
		res.E2E.Seconds(), res.ProducerStall.Seconds(),
		RoutingSplitTimeline(res.Rec.Spans(), 48))
	return TraceFigure{Title: "Staging tier: hybrid routing trace", Gantt: g, Detail: det}
}

// RunAdaptiveTrace is RunStagingTrace with the closed-loop controller in
// charge: the routing-split timeline shows the staging share rising as the
// consumer falls behind and relaxing back to the direct path.
func RunAdaptiveTrace(steps int) TraceFigure {
	spec := stagingSpec("cfd", 8, steps)
	spec.P, spec.Q = 2, 1
	spec.Stagers = 1
	spec.Zipper.RoutePolicy = core.RouteAdaptive
	spec.Trace = true
	res := workflow.RunZipper(spec)
	if !res.OK {
		return TraceFigure{Title: "Adaptive routing trace", Detail: "crash: " + res.Fail}
	}
	g := res.Rec.Gantt(trace.GanttOptions{
		Width: 96,
		Procs: []string{
			"sim.0", "zprod.0.sender",
			"zstage.0.receiver", "zstage.0.forwarder", "zstage.0.spiller",
			"ana.0",
		},
		Symbols: map[string]rune{
			"compute": 'C', "send": 's', "relay": 'R',
			"recv": 'r', "forward": 'F', "spill": 'S', "unspill": 'u',
			"analyze": 'A', "stall": '#', "step": ' ', "MPI_Sendrecv": 'm',
		},
	})
	det := fmt.Sprintf(
		"adaptive routing: %d direct, %d relayed, %d via disk, %d stager spills within e2e %.2fs (stall %.2fs)\n%s",
		res.BlocksSent, res.BlocksRelayed, res.BlocksStolen, res.StagerSpills,
		res.E2E.Seconds(), res.ProducerStall.Seconds(),
		RoutingSplitTimeline(res.Rec.Spans(), 48))
	return TraceFigure{Title: "Staging tier: adaptive routing trace", Gantt: g, Detail: det}
}
