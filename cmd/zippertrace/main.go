// zippertrace renders execution traces of coupled workflows as ASCII Gantt
// charts, reproducing the paper's TAU / Intel Trace Analyzer views: the
// native DIMES lock trace (Figure 4), the Flexpath and Decaf interference
// traces (Figures 5, 6), and the Zipper-vs-Decaf step-rate comparisons
// (Figures 17, 19).
//
// Usage:
//
//	zippertrace dimes|flexpath|decaf            # Figures 4, 5, 6
//	zippertrace compare-cfd [-cores N]          # Figure 17
//	zippertrace compare-lammps [-cores N]       # Figure 19
//	zippertrace staging [-steps N]              # in-transit stager threads
//	zippertrace elastic [-steps N]              # autoscaled stager pool
//	zippertrace placement [-steps N]            # rank-affine vs least-occupancy placement
//	zippertrace failover [-steps N]             # crash, replay, respawn
//	zippertrace fleet [-steps N]                # multi-job shared-fleet control plane
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"zipper/internal/exp"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	cores := fs.Int("cores", 204, "total cores for the comparison traces")
	steps := fs.Int("steps", 10, "time steps to simulate")
	_ = fs.Parse(os.Args[2:])

	switch cmd {
	case "dimes":
		print1(exp.RunFig4())
	case "flexpath":
		print1(exp.RunFig5())
	case "decaf":
		print1(exp.RunFig6())
	case "staging":
		print1(exp.RunStagingTrace(*steps))
		fmt.Println()
		print1(exp.RunAdaptiveTrace(*steps))
		fmt.Println()
		fmt.Print(exp.FormatStaging("synthetic", exp.RunAdaptiveSweep("synthetic", 8, *steps)))
	case "elastic":
		print1(exp.RunElasticTrace(*steps))
	case "placement":
		fmt.Print(exp.FormatPlacement(exp.RunPlacementSweep(*steps)))
	case "failover":
		print1(exp.RunFailoverTrace(*steps))
	case "fleet":
		print1(exp.RunFleetTrace(*steps))
	case "compare-cfd", "compare-lammps":
		app, window := "cfd", 1300*time.Millisecond
		if cmd == "compare-lammps" {
			app, window = "lammps", 9100*time.Millisecond
		}
		cmp := exp.RunStepComparison(app, *cores, *steps, window)
		fmt.Println(cmp.Title)
		fmt.Printf("steps in snapshot: Zipper %.2f, Decaf %.2f\n\n", cmp.ZipperSteps, cmp.DecafSteps)
		fmt.Println("Zipper:")
		fmt.Print(cmp.ZipperGantt)
		fmt.Println("\nDecaf:")
		fmt.Print(cmp.DecafGantt)
	default:
		usage()
		os.Exit(2)
	}
}

func print1(f exp.TraceFigure) {
	fmt.Println(f.Title)
	fmt.Print(f.Gantt)
	fmt.Println(f.Detail)
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: zippertrace dimes|flexpath|decaf|staging|elastic|placement|failover|fleet|compare-cfd|compare-lammps [-cores N] [-steps N]")
}
