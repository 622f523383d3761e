package exp

import (
	"fmt"
	"strings"
	"time"

	"zipper/internal/core"
	"zipper/internal/place"
	"zipper/internal/workflow"
)

// PlacementRow is one placement policy of the placement sweep: the same
// skewed-rate staged workload resolved rank-affine and least-occupancy, with
// the per-stager relay split that shows where the traffic actually landed.
type PlacementRow struct {
	Policy string
	OK     bool
	Fail   string
	E2E    time.Duration
	// WriteStall is the longest any producer's Write sat blocked — the cost
	// of funneling a skewed producer through one relay.
	WriteStall time.Duration
	// PerStager is each stager's received-block total, and Imbalance their
	// max/mean ratio (1.0 = perfectly even).
	PerStager []int64
	Imbalance float64
	// Spills counts blocks the tier overflowed to its spill partitions.
	Spills int64
}

// placementSpec is the skewed staged workload of the placement sweep:
// producer 0 emits 6x its peers' volume (at 6x their rate), everything
// relayed through a 4-endpoint staging tier sized so the skewed stream
// overflows any single stager.
func placementSpec(steps int) workflow.Spec {
	spec := stagingSpec("cfd", 4, steps)
	spec.P, spec.Q = 4, 2
	spec.Stagers = 4
	spec.StagerBufferBlocks = 64
	spec.Workload.Skew = []float64{6, 1, 1, 1}
	spec.Zipper.RoutePolicy = core.RouteStaging
	return spec
}

// RunPlacementSweep runs the skewed workload under each placement policy on
// the simulated platform. Rank-affine funnels rank 0's torrent through one
// stager (the imbalance the load-aware policy exists to shrink);
// least-occupancy spreads it by live buffer occupancy.
func RunPlacementSweep(steps int) []PlacementRow {
	var rows []PlacementRow
	for _, kind := range []place.Kind{place.KindRankAffine, place.KindLeastOccupancy} {
		spec := placementSpec(steps)
		spec.Placement = kind
		res := workflow.RunZipper(spec)
		rows = append(rows, PlacementRow{
			Policy:     kind.String(),
			OK:         res.OK,
			Fail:       res.Fail,
			E2E:        res.E2E,
			WriteStall: res.ProducerStall,
			PerStager:  res.StagerRelayed,
			Imbalance:  res.RelayImbalance,
			Spills:     res.StagerSpills,
		})
	}
	return rows
}

// FormatPlacement renders the placement sweep with a per-stager relay bar
// per row, so the funnel-vs-spread difference is visible at a glance.
func FormatPlacement(rows []PlacementRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Placement sweep: rank-affine against least-occupancy, skewed 4-producer staged workload (rank 0 emits 6x its peers)\n")
	fmt.Fprintf(&b, "%-16s %-10s %-12s %-10s %-8s %s\n",
		"policy", "e2e", "write-stall", "imbalance", "spills", "relayed per stager")
	for _, r := range rows {
		if !r.OK {
			fmt.Fprintf(&b, "%-16s crash: %s\n", r.Policy, r.Fail)
			continue
		}
		fmt.Fprintf(&b, "%-16s %-10s %-12s %-10.2f %-8d %s\n",
			r.Policy, fmtDur(r.E2E), fmtDur(r.WriteStall), r.Imbalance, r.Spills,
			relayBar(r.PerStager))
	}
	b.WriteString("\nimbalance = max/mean of blocks relayed per stager endpoint (1.0 = even).\n")
	return b.String()
}

// relayBar renders the per-stager relay split as counts with a proportional
// bar per endpoint.
func relayBar(per []int64) string {
	var peak int64
	for _, v := range per {
		if v > peak {
			peak = v
		}
	}
	if peak == 0 {
		return "(no relay traffic)"
	}
	var b strings.Builder
	for i, v := range per {
		if i > 0 {
			b.WriteByte(' ')
		}
		n := int(v * 8 / peak)
		fmt.Fprintf(&b, "%d:%-5d%s", i, v, strings.Repeat("▍", n))
	}
	return b.String()
}

func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.2fs", d.Seconds())
}
