// Command mosconsim runs the complete MoSConS attack end to end: profile the
// adversary's models, train every inference model, co-run the spy against a
// chosen victim's training, and print the recovered structure with its
// accuracy against ground truth.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"leakydnn/internal/attack"
	"leakydnn/internal/chaos"
	"leakydnn/internal/dnn"
	"leakydnn/internal/eval"
	"leakydnn/internal/fleet"
	"leakydnn/internal/journal"
	"leakydnn/internal/lstm"
	"leakydnn/internal/profiling"
	"leakydnn/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mosconsim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		scaleName = flag.String("scale", "tiny", "experiment scale: tiny, mid, paper")
		victimIdx = flag.Int("victim", -1, "tested-model index to attack (-1 = all)")
		seed      = flag.Int64("seed", 0, "simulation seed (0 = the scale's default)")
		verbose   = flag.Bool("v", false, "print per-sample letters")
		saveFile  = flag.String("save", "", "save the trained model set to this file")
		loadFile  = flag.String("load", "", "load a previously saved model set instead of training")
		workers   = flag.Int("workers", runtime.GOMAXPROCS(0),
			"trace-collection and training worker-pool size (results are identical for any value; 1 runs serially)")
		batch = flag.Int("batch", 0,
			"LSTM minibatch size: sequences per optimizer step (0 = 1, the per-sequence schedule)")
		precision = flag.String("precision", "fp64",
			"LSTM training arithmetic: fp64 (bit-reproducible historical trajectories) or fp32 (faster, separately deterministic)")
		chaosIntensity = flag.Float64("chaos", 0,
			"measurement-fault intensity in [0,1]: applies the canonical chaos.At blend to the victim co-runs (0 = clean)")
		chaosDrop     = flag.Float64("chaos-drop", 0, "override: per-sample CUPTI drop rate")
		chaosJitter   = flag.Float64("chaos-jitter", 0, "override: counter jitter fraction")
		chaosTruncate = flag.Float64("chaos-truncate", 0, "override: trailing trace fraction discarded")
		chaosArmFail  = flag.Float64("chaos-armfail", 0, "override: spy channel arming failure rate")
		chaosSeed     = flag.Int64("chaos-seed", 0, "fault-stream seed (0 = derive from -seed)")

		schedIntensity = flag.Float64("sched", 0,
			"scheduler-fault intensity in [0,1]: applies the canonical chaos.SchedAt mix (victim stalls, driver resets, tenant churn) to the victim co-runs")
		schedStallRate = flag.Float64("sched-stall-rate", 0, "override: per-iteration victim input-pipeline stall probability")
		schedStallFrac = flag.Float64("sched-stall-frac", 0, "override: stall length as a fraction of one iteration")
		schedResets    = flag.Int("sched-resets", 0, "override: driver resets of the spy context per run")
		schedJoins     = flag.Int("sched-joins", 0, "override: background tenants joining mid-run")
		schedLeaves    = flag.Int("sched-leaves", 0, "override: initially attached tenants leaving mid-run")
		schedSeed      = flag.Int64("sched-seed", 0, "scheduler-fault-stream seed (0 = derive from -seed)")

		saveTraces = flag.String("save-traces", "", "stream the victim traces to this file after collection")
		loadTraces = flag.String("load-traces", "", "load victim traces from this file instead of re-collecting (chaos/sched flags are ignored)")

		fleetN = flag.Int("fleet", 0,
			"run a fleet of N independently seeded devices (heterogeneous classes and tenancy mixes; each device's victim is attacked with its class group's shared model set) instead of the single-device pipeline")
		fleetBudget = flag.Int("fleet-budget", 0,
			"with -fleet: total slow-down channels shared across all devices (0 = unlimited)")
		fleetChaos = flag.Float64("fleet-chaos", 0,
			"with -fleet: device-fault intensity in [0,1] (canonical chaos.FleetAt mix: device crashes, spy kills, arming-session losses on first attempts)")
		fleetRetries = flag.Int("fleet-retries", 2,
			"with -fleet: bounded per-device retries on crash/timeout before quarantine (each retry draws a fresh keyed seed stream)")
		fleetWatchdog = flag.Duration("fleet-watchdog", 0,
			"with -fleet: per-device attempt deadline; an attempt past it is abandoned and retried (0 = none)")
		journalPath = flag.String("journal", "",
			"with -fleet: journal each device's result to this file (crash-safe, fsync'd); requires -resume if the file already holds records")
		resume = flag.Bool("resume", false,
			"with -fleet: replay completed devices from -journal instead of re-running them")

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
			fmt.Fprintln(os.Stderr, "mosconsim:", perr)
		}
	}()

	sc, err := scaleByName(*scaleName)
	if err != nil {
		return err
	}
	if *seed != 0 {
		sc.Seed = *seed
	}
	sc.Workers = *workers
	sc.Attack.Batch = *batch
	switch *precision {
	case "fp64":
		sc.Attack.Precision = lstm.PrecisionFP64
	case "fp32":
		sc.Attack.Precision = lstm.PrecisionFP32
	default:
		return fmt.Errorf("unknown -precision %q (want fp64 or fp32)", *precision)
	}

	// Faults hit only the victim co-runs: the adversary profiles and trains
	// on their own clean hardware, so sc.Chaos stays zero during the
	// workbench build and the tested traces are re-collected under the plan.
	plan := chaos.At(*chaosIntensity)
	if *chaosDrop > 0 {
		plan.DropRate = *chaosDrop
	}
	if *chaosJitter > 0 {
		plan.JitterFrac = *chaosJitter
	}
	if *chaosTruncate > 0 {
		plan.TruncateFrac = *chaosTruncate
	}
	if *chaosArmFail > 0 {
		plan.ArmFailRate = *chaosArmFail
	}
	plan.Sched = chaos.SchedAt(*schedIntensity)
	if *schedStallRate > 0 {
		plan.Sched.StallRate = *schedStallRate
	}
	if *schedStallFrac > 0 {
		plan.Sched.StallFrac = *schedStallFrac
	}
	if *schedResets > 0 {
		plan.Sched.Resets = *schedResets
	}
	if *schedJoins > 0 {
		plan.Sched.TenantJoins = *schedJoins
	}
	if *schedLeaves > 0 {
		plan.Sched.TenantLeaves = *schedLeaves
	}
	if !plan.Sched.IsZero() {
		plan.Sched.Seed = *schedSeed
	}
	if !plan.IsZero() {
		plan.Seed = *chaosSeed
		if err := plan.Validate(); err != nil {
			return err
		}
	}

	if *fleetN > 0 {
		fmt.Printf("== MoSConS fleet: %d devices (%s scale) ==\n", *fleetN, sc.Name)
		cfg := fleet.Config{
			Base:       sc,
			Devices:    *fleetN,
			SpyBudget:  *fleetBudget,
			FleetChaos: chaos.FleetAt(*fleetChaos),
			Retries:    *fleetRetries,
			Watchdog:   *fleetWatchdog,
		}
		if *journalPath != "" {
			j, err := journal.Open(*journalPath)
			if err != nil {
				return err
			}
			defer j.Close()
			if n := len(j.Records()); n > 0 && !*resume {
				return fmt.Errorf("journal %s already holds %d records; pass -resume to replay them or choose a fresh path", *journalPath, n)
			}
			if st := j.Stats(); st.Truncated {
				fmt.Fprintf(os.Stderr, "journal: torn tail truncated (%d bytes lost to the crash)\n", st.TornBytes)
			}
			cfg.Journal = j
		} else if *resume {
			return fmt.Errorf("-resume requires -journal")
		}
		res, err := fleet.Run(cfg)
		if err != nil {
			return err
		}
		fmt.Print(fleet.RenderRollup(res.Devices))
		// One stable fingerprint line per device: the crash-recovery soak
		// diffs these between an interrupted-and-resumed campaign and its
		// uninterrupted golden.
		for i, d := range res.Devices {
			fp := d.Fingerprint
			if fp == "" {
				fp = "quarantined:" + d.FailCause
			}
			fmt.Printf("fingerprint %03d %-24s %s\n", i, d.Spec.Name, fp)
		}
		fmt.Printf("aggregate scheduler grants: %d\n", res.TotalSchedSlices)
		return nil
	}

	fmt.Printf("== MoSConS end-to-end (%s scale) ==\n", sc.Name)

	var models *attack.Models
	var tested []*trace.Trace
	if *loadFile != "" {
		f, err := os.Open(*loadFile)
		if err != nil {
			return err
		}
		models, err = attack.LoadModels(f)
		f.Close()
		if err != nil {
			return err
		}
		fmt.Printf("loaded trained models from %s\n", *loadFile)
	} else {
		fmt.Println("collecting profiling traces and training inference models ...")
		w, err := eval.NewWorkbench(sc)
		if err != nil {
			return err
		}
		t := w.Timings
		fmt.Fprintf(os.Stderr, "workbench ready: collect %.2fs, train %.2fs (overlapped), wall %.2fs\n",
			t.Collect.Seconds(), t.Train.Seconds(), t.Wall.Seconds())
		models = w.Models
		tested = w.Tested
	}
	if *loadTraces != "" {
		f, err := os.Open(*loadTraces)
		if err != nil {
			return err
		}
		tested, err = trace.ReadTraces(f)
		f.Close()
		if err != nil {
			return err
		}
		fmt.Printf("loaded %d victim traces from %s\n", len(tested), *loadTraces)
	} else if tested == nil || !plan.IsZero() {
		scVictim := sc
		scVictim.Chaos = plan
		if !plan.IsZero() {
			fmt.Printf("re-collecting victim traces under fault plan (measurement %.2f, scheduler %.2f blend)\n",
				*chaosIntensity, *schedIntensity)
		}
		tested, err = scVictim.CollectTraces(scVictim.Tested, eval.StreamTested)
		if err != nil {
			return err
		}
	}
	if *saveTraces != "" {
		f, err := os.Create(*saveTraces)
		if err != nil {
			return err
		}
		if err := trace.WriteTraces(f, tested); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("victim traces streamed to %s\n", *saveTraces)
	}
	fmt.Printf("training report: %v\n\n", models.Report)

	if *saveFile != "" {
		f, err := os.Create(*saveFile)
		if err != nil {
			return err
		}
		if err := models.Save(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("trained models saved to %s\n\n", *saveFile)
	}

	targets := tested
	if *victimIdx >= 0 {
		if *victimIdx >= len(tested) {
			return fmt.Errorf("victim index %d out of range [0,%d)", *victimIdx, len(tested))
		}
		targets = tested[*victimIdx : *victimIdx+1]
	}
	for _, tr := range targets {
		if err := attackOne(models, tr, *verbose); err != nil {
			return err
		}
	}
	return nil
}

func attackOne(models *attack.Models, tr *trace.Trace, verbose bool) error {
	fmt.Printf("---- victim %s (%d samples) ----\n", tr.Model.Name, len(tr.Samples))
	if tr.Health != nil {
		fmt.Printf("trace health: %s\n", tr.Health.Summary())
	}
	rec, err := models.ExtractTrace(tr)
	if err != nil {
		// A trace can be too damaged to attack; report and move on rather
		// than abort the remaining victims.
		fmt.Printf("extraction failed: %v\n\n", err)
		return nil
	}
	if verbose {
		fmt.Printf("letters: %s\n", rec.Letters)
	}
	if rec.Coverage.StreamSegments > 1 {
		fmt.Printf("stream: %d independent segments (%d re-anchor markers)\n",
			rec.Coverage.StreamSegments, len(tr.Reanchors))
	}
	fmt.Printf("iterations: %d detected, %d clean", len(rec.Split.All), len(rec.Split.Valid))
	if n := rec.Coverage.QuarantinedShort + rec.Coverage.QuarantinedLong; n > 0 {
		fmt.Printf(" (%d quarantined: %d short, %d long)",
			n, rec.Coverage.QuarantinedShort, rec.Coverage.QuarantinedLong)
	}
	if rec.Coverage.UsedFallback {
		fmt.Printf(" [fallback: voting over unfiltered segments]")
	}
	fmt.Println()
	fmt.Printf("op sequence: %s\n", rec.OpSeq)
	fmt.Printf("fingerprint: %s\n", rec.Fingerprint())
	fmt.Printf("optimizer:   %v (true %v)\n", rec.Optimizer, tr.Model.Optimizer)
	fmt.Println("layers:")
	for i, l := range rec.Layers {
		switch l.Kind {
		case dnn.LayerConv:
			fmt.Printf("  %2d: Conv  filter=%dx%d count=%d stride=%d act=%v\n",
				i, l.FilterSize, l.FilterSize, l.NumFilters, l.Stride, l.Act)
		case dnn.LayerFC:
			fmt.Printf("  %2d: FC    neurons=%d act=%v\n", i, l.Neurons, l.Act)
		case dnn.LayerMaxPool:
			fmt.Printf("  %2d: MaxPool\n", i)
		}
	}
	layerAcc, hpAcc := attack.LayerAccuracy(rec.Layers, tr.Model)
	truth := attack.LetterTruth(tr.Labels(), rec.Base)
	_, letterAcc := attack.LetterAccuracy(rec.Letters, truth)
	fmt.Printf("accuracy: ops %.1f%%, layers %.1f%%, hyper-parameters %.1f%%\n\n",
		letterAcc*100, layerAcc*100, hpAcc*100)
	return nil
}

func scaleByName(name string) (eval.Scale, error) {
	switch name {
	case "tiny":
		return eval.Tiny(), nil
	case "mid":
		return eval.Mid(), nil
	case "paper":
		return eval.Paper(), nil
	}
	return eval.Scale{}, fmt.Errorf("unknown scale %q (tiny, mid, paper)", name)
}
