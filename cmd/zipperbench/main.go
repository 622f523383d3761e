// zipperbench regenerates the paper's tables and figures on the simulated
// platform. Each subcommand prints the same rows or series the paper
// reports; compare shapes (ordering, ratios, crossovers), which are what
// the tests of internal/exp assert.
//
// Usage:
//
//	zipperbench table1|table2|table3
//	zipperbench fig2   [-steps N] [-scale K]
//	zipperbench fig4|fig5|fig6
//	zipperbench fig11
//	zipperbench fig12|fig13 [-producers P]
//	zipperbench fig14|fig15 [-steps N] [-full]
//	zipperbench fig16|fig18 [-steps N] [-full]
//	zipperbench fig17|fig19 [-cores N] [-steps N]
//	zipperbench model  [-producers P]
//	zipperbench all    (quick versions of everything)
//
// Paper-scale runs (-scale 1 / -full) simulate thousands of ranks and take
// minutes of wall time; the defaults are scaled for interactive use.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"zipper/internal/apps/synthetic"
	"zipper/internal/core"
	"zipper/internal/exp"
	"zipper/internal/model"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	steps := fs.Int("steps", 0, "time steps (0 = experiment default)")
	scale := fs.Int("scale", 8, "rank-count divisor for fig2 (1 = paper scale)")
	producers := fs.Int("producers", 56, "producer ranks for fig12/fig13/model (paper: 1568)")
	cores := fs.Int("cores", 204, "total cores for fig17/fig19 (paper fig19: 13056)")
	full := fs.Bool("full", false, "run the full paper-scale sweep (slow)")
	_ = fs.Parse(os.Args[2:])

	switch cmd {
	case "table1":
		fmt.Print(exp.Table1())
	case "table2":
		fmt.Print(exp.Table2())
	case "table3":
		fmt.Print(exp.Table3())
	case "fig2":
		n := *steps
		if n == 0 {
			n = 30
		}
		fmt.Print(exp.FormatFig2(exp.RunFig2(n, *scale)))
	case "fig3":
		printTrace(exp.RunFig3())
	case "fig4":
		printTrace(exp.RunFig4())
	case "fig5":
		printTrace(exp.RunFig5())
	case "fig6":
		printTrace(exp.RunFig6())
	case "fig11":
		fmt.Println("Figure 11: non-integrated vs integrated (pipelined) design")
		fmt.Print(model.PipelineDiagram(7))
	case "fig12":
		fmt.Print(exp.FormatBreakdown(
			fmt.Sprintf("Figure 12: Zipper stage breakdown, No Preserve mode (%d producers)", *producers),
			exp.RunBreakdown(core.NoPreserve, *producers)))
	case "fig13":
		fmt.Print(exp.FormatBreakdown(
			fmt.Sprintf("Figure 13: Zipper stage breakdown, Preserve mode (%d producers)", *producers),
			exp.RunBreakdown(core.Preserve, *producers)))
	case "fig14", "fig15":
		coresList := []int{84, 168, 336}
		n := 10
		if *full {
			coresList = exp.Fig14Cores
			n = 0
		}
		if *steps > 0 {
			n = *steps
		}
		for _, c := range []synthetic.Complexity{synthetic.Linear, synthetic.NLogN, synthetic.N32} {
			fmt.Print(exp.FormatSweep(c, exp.RunConcurrentSweep(c, coresList, n)))
		}
	case "fig16", "fig18":
		app := "cfd"
		title := "Figure 16: CFD weak scaling on Stampede2"
		if cmd == "fig18" {
			app = "lammps"
			title = "Figure 18: LAMMPS weak scaling on Stampede2"
		}
		coresList := []int{204, 408, 816}
		n := 10
		if *full {
			coresList = exp.ScalingCores
			n = 30
		}
		if *steps > 0 {
			n = *steps
		}
		fmt.Print(exp.FormatScaling(title, exp.RunScaling(app, coresList, n)))
	case "fig17", "fig19":
		app := "cfd"
		window := 1300 * time.Millisecond
		if cmd == "fig19" {
			app = "lammps"
			window = 9100 * time.Millisecond
		}
		n := *steps
		if n == 0 {
			n = 10
		}
		cmp := exp.RunStepComparison(app, *cores, n, window)
		fmt.Printf("%s\n", cmp.Title)
		fmt.Printf("steps completed in the snapshot: Zipper %.2f vs Decaf %.2f (%.2fx)\n",
			cmp.ZipperSteps, cmp.DecafSteps, cmp.ZipperSteps/cmp.DecafSteps)
		fmt.Println("Zipper (sim.0):")
		fmt.Print(cmp.ZipperGantt)
		fmt.Println("Decaf (sim.0):")
		fmt.Print(cmp.DecafGantt)
	case "model":
		fmt.Print(exp.FormatModel(exp.RunModelValidation(*producers)))
	case "all":
		fmt.Print(exp.Table1(), "\n", exp.Table2(), "\n", exp.Table3(), "\n")
		fmt.Print(exp.FormatFig2(exp.RunFig2(12, 16)), "\n")
		printTrace(exp.RunFig4())
		printTrace(exp.RunFig5())
		printTrace(exp.RunFig6())
		fmt.Print(model.PipelineDiagram(7), "\n")
		fmt.Print(exp.FormatBreakdown("Figure 12 (No Preserve)", exp.RunBreakdown(core.NoPreserve, 28)), "\n")
		fmt.Print(exp.FormatBreakdown("Figure 13 (Preserve)", exp.RunBreakdown(core.Preserve, 28)), "\n")
		fmt.Print(exp.FormatSweep(synthetic.Linear, exp.RunConcurrentSweep(synthetic.Linear, []int{84, 168}, 8)), "\n")
		fmt.Print(exp.FormatScaling("Figure 16 (CFD)", exp.RunScaling("cfd", []int{204, 408}, 8)), "\n")
		fmt.Print(exp.FormatScaling("Figure 18 (LAMMPS)", exp.RunScaling("lammps", []int{204, 408}, 8)), "\n")
		fmt.Print(exp.FormatModel(exp.RunModelValidation(28)))
	default:
		usage()
		os.Exit(2)
	}
}

func printTrace(f exp.TraceFigure) {
	fmt.Println(f.Title)
	fmt.Print(f.Gantt)
	fmt.Println(f.Detail)
	fmt.Println()
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: zipperbench <experiment> [flags]
experiments: table1 table2 table3 fig2 fig3 fig4 fig5 fig6 fig11 fig12 fig13
             fig14 fig15 fig16 fig17 fig18 fig19 model all
flags:       -steps N  -scale K  -producers P  -cores N  -full`)
}
