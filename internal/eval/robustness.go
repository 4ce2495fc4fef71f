package eval

import (
	"context"
	"fmt"
	"strings"

	"leakydnn/internal/attack"
	"leakydnn/internal/chaos"
	"leakydnn/internal/par"
	"leakydnn/internal/trace"
)

// RobustnessResult is the accuracy-vs-fault-intensity sweep: the attack's
// models are trained once on clean profiled traces, then every tested victim
// is re-collected under the cross product of chaos.At (measurement faults)
// and chaos.SchedAt (scheduler faults) and attacked. It answers the
// robustness question the paper leaves implicit along both axes: how much
// measurement-path damage can MoSConS absorb, and how much scheduling-layer
// churn — driver resets, victim stalls, tenant churn — can the spy survive?
type RobustnessResult struct {
	Scale string
	Rows  []RobustnessRow
}

// RobustnessRow aggregates one (measurement, scheduler) intensity cell over
// every tested victim.
type RobustnessRow struct {
	// Intensity is the measurement-fault intensity (chaos.At);
	// SchedIntensity is the scheduler-fault intensity (chaos.SchedAt).
	Intensity      float64
	SchedIntensity float64

	// Victims is the tested-model count; CollectFailed counts co-runs the
	// fault injector killed outright (e.g. the probe channel never armed),
	// ExtractFailed counts traces too damaged for the pipeline to find any
	// iteration. Both count into the accuracy means as total misses.
	Victims       int
	CollectFailed int
	ExtractFailed int

	// LetterAcc and LayerAcc are Table VII/IX-style accuracies averaged over
	// all victims (failed victims contribute zero).
	LetterAcc float64
	LayerAcc  float64

	// Aggregate trace-health accounting across the collected victims.
	SamplesEmitted        int
	SamplesDelivered      int
	IterationsTotal       int
	IterationsProcessed   int
	IterationsQuarantined int
	SpyArmRetries         int
	SpyChannelsRejected   int

	// Scheduler-fault accounting (zero on the SchedIntensity == 0 column).
	ResetsInjected        int
	ResetsSurvived        int
	StallsInjected        int
	ChurnEvents           int
	SamplesLostToRecovery int
	Reanchors             int
}

// Robustness sweeps the cross product of the canonical measurement-fault
// blend (chaos.At over measIntensities) and the canonical scheduler-fault mix
// (chaos.SchedAt over schedIntensities). Training (and the workbench's clean
// tested traces) stay untouched; each cell re-collects every tested victim
// under its own fault plan and extracts with the already-trained models,
// honoring any re-anchor markers the spy's recovery layer emitted. Per-victim
// failures degrade the cell's averages instead of aborting the sweep. Passing
// schedIntensities == nil sweeps the measurement axis alone (one row per
// measurement intensity, scheduler at zero).
func (w *Workbench) Robustness(measIntensities, schedIntensities []float64) (*RobustnessResult, error) {
	if len(measIntensities) == 0 {
		return nil, fmt.Errorf("eval: no intensities to sweep")
	}
	if len(schedIntensities) == 0 {
		schedIntensities = []float64{0}
	}
	res := &RobustnessResult{Scale: w.Scale.Name}
	for _, schedIntensity := range schedIntensities {
		for _, intensity := range measIntensities {
			row, err := w.robustnessCell(intensity, schedIntensity)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, *row)
		}
	}
	return res, nil
}

func (w *Workbench) robustnessCell(intensity, schedIntensity float64) (*RobustnessRow, error) {
	plan := chaos.At(intensity)
	plan.Sched = chaos.SchedAt(schedIntensity)
	if err := plan.Validate(); err != nil {
		return nil, fmt.Errorf("eval: intensity (%v, %v): %w", intensity, schedIntensity, err)
	}
	sc := w.Scale
	sc.Chaos = plan
	row := &RobustnessRow{Intensity: intensity, SchedIntensity: schedIntensity, Victims: len(sc.Tested)}

	type victim struct {
		tr         *trace.Trace
		letterAcc  float64
		layerAcc   float64
		collectErr error
		extractErr error
	}
	// Same seed stream as the workbench's clean tested collection, so each
	// cell perturbs the same underlying co-runs and the sweep isolates
	// the fault effect from seed-to-seed variance.
	outs, err := par.MapCtx(context.Background(), sc.Workers, len(sc.Tested), func(i int) (victim, error) {
		tr, err := trace.Collect(sc.Tested[i], sc.RunConfig(sc.StreamSeed(StreamTested, i), true))
		if err != nil {
			return victim{collectErr: err}, nil
		}
		v := victim{tr: tr}
		rec, err := w.Models.ExtractTrace(tr)
		if err != nil {
			v.extractErr = err
			return v, nil
		}
		truth := attack.LetterTruth(tr.Labels(), rec.Base)
		_, v.letterAcc = attack.LetterAccuracy(rec.Letters, truth)
		v.layerAcc, _ = attack.LayerAccuracy(rec.Layers, tr.Model)
		return v, nil
	})
	if err != nil {
		return nil, fmt.Errorf("eval: robustness cell (%v, %v): %w", intensity, schedIntensity, err)
	}
	for _, v := range outs {
		switch {
		case v.collectErr != nil:
			row.CollectFailed++
			continue
		case v.extractErr != nil:
			row.ExtractFailed++
		default:
			row.LetterAcc += v.letterAcc
			row.LayerAcc += v.layerAcc
		}
		h := v.tr.Health
		row.SamplesEmitted += h.SamplesEmitted
		row.SamplesDelivered += h.SamplesDelivered
		row.IterationsTotal += h.IterationsTotal
		row.IterationsProcessed += h.IterationsProcessed
		row.IterationsQuarantined += h.IterationsQuarantined
		row.SpyArmRetries += h.SpyArmRetries
		row.SpyChannelsRejected += h.SpyChannelsRejected
		row.ResetsInjected += h.Sched.ResetsInjected
		row.ResetsSurvived += h.Sched.ResetsSurvived
		row.StallsInjected += h.Sched.StallsInjected
		row.ChurnEvents += h.Sched.ChurnEvents()
		row.SamplesLostToRecovery += h.Sched.SamplesLostToRecovery
		row.Reanchors += h.Reanchors
	}
	if row.Victims > 0 {
		row.LetterAcc /= float64(row.Victims)
		row.LayerAcc /= float64(row.Victims)
	}
	if row.IterationsProcessed+row.IterationsQuarantined != row.IterationsTotal {
		return nil, fmt.Errorf("eval: robustness cell (%v, %v) breaks the iteration identity: %d + %d != %d",
			intensity, schedIntensity, row.IterationsProcessed, row.IterationsQuarantined, row.IterationsTotal)
	}
	return row, nil
}

// Render prints the sweep as one row per (scheduler, measurement) cell,
// grouped by scheduler intensity.
func (r *RobustnessResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Robustness: accuracy vs fault intensity, measurement x scheduler (%s scale)\n", r.Scale)
	fmt.Fprintf(&b, "%-6s %-6s %-10s %-10s %-16s %-18s %-14s %-12s %-14s %s\n",
		"meas", "sched", "letterAcc", "layerAcc", "victims(C/X/ok)", "samples del/emit", "iters ok/quar",
		"resets s/i", "churn/stalls", "lost+anchors")
	for _, row := range r.Rows {
		ok := row.Victims - row.CollectFailed - row.ExtractFailed
		fmt.Fprintf(&b, "%-6.2f %-6.2f %-10.3f %-10.3f %d/%d/%-12d %d/%-17d %d/%-13d %d/%-10d %d/%-12d %d+%d\n",
			row.Intensity, row.SchedIntensity, row.LetterAcc, row.LayerAcc,
			row.CollectFailed, row.ExtractFailed, ok,
			row.SamplesDelivered, row.SamplesEmitted,
			row.IterationsProcessed, row.IterationsQuarantined,
			row.ResetsSurvived, row.ResetsInjected,
			row.ChurnEvents, row.StallsInjected,
			row.SamplesLostToRecovery, row.Reanchors)
	}
	return b.String()
}
