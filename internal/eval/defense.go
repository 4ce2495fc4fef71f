package eval

import (
	"context"
	"fmt"
	"strings"

	"leakydnn/internal/attack"
	"leakydnn/internal/cupti"
	"leakydnn/internal/defense"
	"leakydnn/internal/par"
	"leakydnn/internal/trace"
)

// DefenseResult measures how much op-inference accuracy each §VI
// countermeasure removes from a trained attack.
type DefenseResult struct {
	Rows []DefenseRow
}

// DefenseRow is one defense configuration's outcome.
type DefenseRow struct {
	Defense        string
	LetterAccuracy float64
	// SamplesPerIter shows the hardened scheduler's starvation effect.
	SamplesPerIter float64
}

// EvaluateDefenses attacks the first tested model under no defense, counter
// quantization, counter noise, and the hardened scheduler, reporting the
// spy's per-sample letter accuracy in each setting.
func (w *Workbench) EvaluateDefenses(quantStep, noiseFrac float64) (*DefenseResult, error) {
	if len(w.Tested) == 0 {
		return nil, fmt.Errorf("eval: no tested traces")
	}
	base := w.Tested[len(w.Tested)-1]
	baselineSPI := meanSamplesPerIter(base)

	score := func(name string, samples []cupti.Sample, spIter float64) (DefenseRow, error) {
		rec, err := w.Models.Extract(samples)
		if err != nil {
			return DefenseRow{}, fmt.Errorf("defense %s: %w", name, err)
		}
		truth := attack.LetterTruth(base.Labels(), rec.Base)
		_, acc := attack.LetterAccuracy(rec.Letters, truth)
		return DefenseRow{Defense: name, LetterAccuracy: acc, SamplesPerIter: spIter}, nil
	}

	// The four rows are independent attacks on the same read-only trained
	// models; par.MapCtx keeps them in the paper's row order.
	rows, err := par.MapCtx(context.Background(), w.Scale.Workers, 4, func(i int) (DefenseRow, error) {
		switch i {
		case 0:
			return score("none", base.Samples, baselineSPI)
		case 1:
			quantized, err := defense.QuantizeSamples(base.Samples, quantStep)
			if err != nil {
				return DefenseRow{}, err
			}
			return score(fmt.Sprintf("quantize(step=%g)", quantStep), quantized, baselineSPI)
		case 2:
			noised, err := defense.NoiseSamples(base.Samples, noiseFrac, w.Scale.StreamSeed(StreamDefenseNoise, 0))
			if err != nil {
				return DefenseRow{}, err
			}
			return score(fmt.Sprintf("noise(frac=%g)", noiseFrac), noised, baselineSPI)
		default:
			// Hardened scheduler: recollect the victim's trace on the
			// protected device. The spy's channel cap disarms the slow-down
			// attack and the victim's boosted slices starve the sampler.
			hardened, err := defense.HardenScheduler(w.Scale.Device, trace.VictimCtx, 4, 1)
			if err != nil {
				return DefenseRow{}, err
			}
			cfg := w.Scale.RunConfig(w.Scale.StreamSeed(StreamDefenseHardened, 0), true)
			cfg.Device = hardened
			hardTrace, err := trace.Collect(base.Model, cfg)
			if err != nil {
				return DefenseRow{}, err
			}
			rec, err := w.Models.Extract(hardTrace.Samples)
			if err != nil {
				// A defense strong enough to break extraction entirely counts
				// as a zero-accuracy row, not an evaluation failure.
				return DefenseRow{
					Defense:        "hardened-scheduler",
					SamplesPerIter: meanSamplesPerIter(hardTrace),
				}, nil
			}
			truth := attack.LetterTruth(hardTrace.Labels(), rec.Base)
			_, acc := attack.LetterAccuracy(rec.Letters, truth)
			return DefenseRow{
				Defense:        "hardened-scheduler",
				LetterAccuracy: acc,
				SamplesPerIter: meanSamplesPerIter(hardTrace),
			}, nil
		}
	})
	if err != nil {
		return nil, err
	}
	return &DefenseResult{Rows: rows}, nil
}

func meanSamplesPerIter(tr *trace.Trace) float64 {
	counts := tr.SamplesPerIteration()
	if len(counts) == 0 {
		return 0
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	return float64(total) / float64(len(counts))
}

// Render prints the defense comparison.
func (r *DefenseResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "§VI defenses: attack op accuracy under each countermeasure\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-24s accuracy %.1f%%  samples/iter %.1f\n",
			row.Defense, row.LetterAccuracy*100, row.SamplesPerIter)
	}
	return b.String()
}
