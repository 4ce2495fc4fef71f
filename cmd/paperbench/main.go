// Command paperbench regenerates the paper's tables and figures from the
// simulator: every experiment of the evaluation section plus the ablations
// DESIGN.md calls out. Select an experiment with -exp and a platform scale
// with -scale; "all" runs the complete battery and prints each artifact in
// the paper's layout.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"leakydnn/internal/eval"
	"leakydnn/internal/fleet"
	"leakydnn/internal/profiling"
)

var experiments = []string{
	"table1", "table2", "fig2", "fig3", "table6", "gapsweep",
	"table7", "table8", "table9", "slowdown", "sweep", "defense",
	"baseline", "shortcut", "rnn", "multitenant", "ablations",
	"robustness", "fleet",
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		expName   = flag.String("exp", "all", "experiment: all, "+strings.Join(experiments, ", "))
		scaleName = flag.String("scale", "tiny", "platform scale: tiny, mid, paper")
		seed      = flag.Int64("seed", 0, "simulation seed (0 = the scale's default)")
		samples   = flag.Int("samples", 60, "samples per pilot-table cell")
		workers   = flag.Int("workers", runtime.GOMAXPROCS(0),
			"evaluation and training worker-pool size (results are identical for any value; 1 runs serially)")
		batch = flag.Int("batch", 0,
			"LSTM minibatch size: sequences per optimizer step (0 = 1, the per-sequence schedule)")
		fleetDevices = flag.Int("fleet-devices", 6,
			"fleet experiment: largest device count (the grid reports prefixes of one run)")
		fleetBudget = flag.Int("fleet-budget", 0,
			"fleet experiment: total slow-down channels shared across devices (0 = unlimited)")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	stopProf, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", perr)
		}
	}()

	sc, err := eval.ScaleByName(*scaleName)
	if err != nil {
		return err
	}
	if *seed != 0 {
		sc.Seed = *seed
	}
	sc.Workers = *workers
	sc.Attack.Batch = *batch

	selected := experiments
	if *expName != "all" {
		selected = strings.Split(*expName, ",")
	}

	// The workbench (one training run) backs several experiments; build it
	// lazily only when one of them is requested.
	var w *eval.Workbench
	bench := func() (*eval.Workbench, error) {
		if w != nil {
			return w, nil
		}
		fmt.Println("[training MoSConS models — shared across experiments]")
		var err error
		w, err = eval.NewWorkbench(sc)
		if err == nil {
			// Collect and Train overlap in the pipelined construction, so
			// their sum exceeds the wall-clock whenever the overlap paid off.
			// Timings go to stderr: stdout must stay byte-identical across
			// runs and worker counts (the determinism contract users diff).
			t := w.Timings
			fmt.Fprintf(os.Stderr, "[workbench phases: collect %.2fs | train %.2fs (overlapped) | wall %.2fs]\n",
				t.Collect.Seconds(), t.Train.Seconds(), t.Wall.Seconds())
		}
		return w, err
	}

	for _, name := range selected {
		fmt.Printf("\n===== %s (%s scale) =====\n", name, sc.Name)
		expStart := time.Now()
		switch strings.TrimSpace(name) {
		case "table1":
			res, err := eval.Table1(sc, *samples)
			if err != nil {
				return err
			}
			fmt.Print(res.Render())
		case "table2":
			res, err := eval.Table2(sc, *samples)
			if err != nil {
				return err
			}
			fmt.Print(res.Render())
		case "fig2":
			res, err := eval.FigSampling(sc, true)
			if err != nil {
				return err
			}
			fmt.Print(res.Render())
		case "fig3":
			res, err := eval.FigSampling(sc, false)
			if err != nil {
				return err
			}
			fmt.Print(res.Render())
		case "table6":
			wb, err := bench()
			if err != nil {
				return err
			}
			res, err := wb.Table6()
			if err != nil {
				return err
			}
			fmt.Print(res.Render())
		case "gapsweep":
			wb, err := bench()
			if err != nil {
				return err
			}
			res, err := wb.GapSweep([]int{8, 16, 32}, []int{32})
			if err != nil {
				return err
			}
			fmt.Print(res.Render())
		case "table7":
			wb, err := bench()
			if err != nil {
				return err
			}
			res, err := wb.Table7()
			if err != nil {
				return err
			}
			fmt.Print(res.Render())
		case "table8":
			res, err := eval.Table8(sc, nil)
			if err != nil {
				return err
			}
			fmt.Print(res.Render())
		case "table9":
			wb, err := bench()
			if err != nil {
				return err
			}
			res, err := wb.Table9()
			if err != nil {
				return err
			}
			fmt.Print(res.Render())
		case "slowdown":
			res, err := eval.SlowdownImpact(sc)
			if err != nil {
				return err
			}
			fmt.Print(res.Render())
		case "sweep":
			points, err := eval.SlowdownSweep(sc, []int{1, 2, 4, 8, 16}, []int{8, 32}, []int{256})
			if err != nil {
				return err
			}
			fmt.Print(eval.RenderSweep(points))
		case "baseline":
			wb, err := bench()
			if err != nil {
				return err
			}
			res, err := wb.CompareBaseline()
			if err != nil {
				return err
			}
			fmt.Print(res.Render())
		case "shortcut":
			wb, err := bench()
			if err != nil {
				return err
			}
			res, err := wb.StudyShortcuts()
			if err != nil {
				return err
			}
			fmt.Print(res.Render())
		case "rnn":
			wb, err := bench()
			if err != nil {
				return err
			}
			res, err := wb.StudyRNN()
			if err != nil {
				return err
			}
			fmt.Print(res.Render())
		case "multitenant":
			wb, err := bench()
			if err != nil {
				return err
			}
			res, err := wb.MultiTenant()
			if err != nil {
				return err
			}
			fmt.Print(res.Render())
		case "defense":
			wb, err := bench()
			if err != nil {
				return err
			}
			res, err := wb.EvaluateDefenses(2000, 1.0)
			if err != nil {
				return err
			}
			fmt.Print(res.Render())
		case "fleet":
			counts := []int{*fleetDevices}
			if *fleetDevices >= 2 {
				counts = []int{*fleetDevices / 2, *fleetDevices}
			}
			g, err := fleet.AccuracyGrid(fleet.Config{
				Base:      sc,
				SpyBudget: *fleetBudget,
			}, counts)
			if err != nil {
				return err
			}
			fmt.Print(g.Render())
		case "robustness":
			wb, err := bench()
			if err != nil {
				return err
			}
			// 2-D grid: measurement-fault intensity x scheduler-fault
			// intensity. The scheduler axis is coarser — each non-zero step
			// injects at least one driver reset, which dominates the cost.
			res, err := wb.Robustness(
				[]float64{0, 0.2, 0.4, 0.6, 0.8, 1.0},
				[]float64{0, 0.5, 1.0},
			)
			if err != nil {
				return err
			}
			fmt.Print(res.Render())
		case "ablations":
			wb, err := bench()
			if err != nil {
				return err
			}
			voting, err := wb.AblationVoting()
			if err != nil {
				return err
			}
			fmt.Print(voting.Render())
			syntax, err := wb.AblationSyntax()
			if err != nil {
				return err
			}
			fmt.Print(syntax.Render())
			sd, err := eval.AblationSlowdown(sc)
			if err != nil {
				return err
			}
			fmt.Print(sd.Render())
			wl, err := eval.AblationWeightedLoss(sc)
			if err != nil {
				return err
			}
			fmt.Print(wl.Render())
			cg, err := eval.AblationCounterGroups(sc)
			if err != nil {
				return err
			}
			fmt.Print(cg.Render())
		default:
			return fmt.Errorf("unknown experiment %q (available: all, %s)",
				name, strings.Join(experiments, ", "))
		}
		fmt.Fprintf(os.Stderr, "[%s: evaluate %.2fs]\n", strings.TrimSpace(name), time.Since(expStart).Seconds())
	}
	return nil
}
