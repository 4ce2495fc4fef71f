package eval

import (
	"context"
	"fmt"
	"strings"

	"leakydnn/internal/attack"
	"leakydnn/internal/cupti"
	"leakydnn/internal/par"
	"leakydnn/internal/trace"
)

// SlowdownAblation quantifies what the slow-down attack buys the spy:
// samples per victim iteration with and without the eight extra kernels.
type SlowdownAblation struct {
	SamplesPerIterWith    float64
	SamplesPerIterWithout float64
	Gain                  float64
}

// AblationSlowdown collects the first tested model's trace with the
// slow-down attack on and off and compares per-iteration sample yields.
func AblationSlowdown(sc Scale) (*SlowdownAblation, error) {
	if len(sc.Tested) == 0 {
		return nil, fmt.Errorf("eval: no tested models")
	}
	// The two co-runs are independent (indices 0/1 of their stream), so they
	// fan out.
	traces, err := par.MapCtx(context.Background(), sc.Workers, 2, func(i int) (*trace.Trace, error) {
		return trace.Collect(sc.Tested[0], sc.RunConfig(sc.StreamSeed(StreamAblationSlowdown, i), i == 0))
	})
	if err != nil {
		return nil, err
	}
	with, without := traces[0], traces[1]
	mean := func(tr *trace.Trace) float64 {
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
	res := &SlowdownAblation{
		SamplesPerIterWith:    mean(with),
		SamplesPerIterWithout: mean(without),
	}
	if res.SamplesPerIterWithout > 0 {
		res.Gain = res.SamplesPerIterWith / res.SamplesPerIterWithout
	}
	return res, nil
}

// Render prints the ablation.
func (r *SlowdownAblation) Render() string {
	return fmt.Sprintf("Ablation: slow-down attack sample yield\n"+
		"  samples/iteration with attack:    %.1f\n"+
		"  samples/iteration without attack: %.1f\n"+
		"  gain: %.2fx\n",
		r.SamplesPerIterWith, r.SamplesPerIterWithout, r.Gain)
}

// SyntaxAblation compares structure recovery with and without the smoothing
// and syntax-correction stages (§IV-D).
type SyntaxAblation struct {
	Rows []SyntaxAblationRow
}

// SyntaxAblationRow is one tested model's comparison.
type SyntaxAblationRow struct {
	Model                   string
	RawLayerAcc, RawHPAcc   float64
	FullLayerAcc, FullHPAcc float64
}

// AblationSyntax re-derives layers from each tested recovery with the
// correction stages disabled and compares against the full pipeline.
func (w *Workbench) AblationSyntax() (*SyntaxAblation, error) {
	rows, err := par.MapCtx(context.Background(), w.Scale.Workers, len(w.Tested), func(i int) (SyntaxAblationRow, error) {
		tr := w.Tested[i]
		rec, err := w.Models.Extract(tr.Samples)
		if err != nil {
			return SyntaxAblationRow{}, err
		}
		// Raw arm: collapse only — no smoothing, no syntax corrections.
		rawLayers := attack.DeriveLayers(attack.CollapseLetters(rec.Letters))
		rawLayerAcc, rawHPAcc := attack.LayerAccuracy(rawLayers, tr.Model)
		fullLayerAcc, fullHPAcc := attack.LayerAccuracy(rec.Layers, tr.Model)
		return SyntaxAblationRow{
			Model:        tr.Model.Name,
			RawLayerAcc:  rawLayerAcc,
			RawHPAcc:     rawHPAcc,
			FullLayerAcc: fullLayerAcc,
			FullHPAcc:    fullHPAcc,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &SyntaxAblation{Rows: rows}, nil
}

// Render prints the ablation.
func (r *SyntaxAblation) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: smoothing + syntax correction\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-20s layers %.1f%% -> %.1f%%, HP %.1f%% -> %.1f%%\n",
			row.Model, row.RawLayerAcc*100, row.FullLayerAcc*100,
			row.RawHPAcc*100, row.FullHPAcc*100)
	}
	return b.String()
}

// VotingAblation aggregates Table VII's two arms into the voting ablation.
type VotingAblation struct {
	MeanPre, MeanVote float64
}

// AblationVoting summarizes Table VII's pre-vote/with-vote contrast.
func (w *Workbench) AblationVoting() (*VotingAblation, error) {
	t7, err := w.Table7()
	if err != nil {
		return nil, err
	}
	res := &VotingAblation{}
	for _, row := range t7.Rows {
		res.MeanPre += row.OverallPre
		res.MeanVote += row.OverallVote
	}
	if n := float64(len(t7.Rows)); n > 0 {
		res.MeanPre /= n
		res.MeanVote /= n
	}
	return res, nil
}

// Render prints the ablation.
func (r *VotingAblation) Render() string {
	return fmt.Sprintf("Ablation: cross-iteration voting\n"+
		"  mean op accuracy pre-vote:  %.1f%%\n"+
		"  mean op accuracy with vote: %.1f%%\n",
		r.MeanPre*100, r.MeanVote*100)
}

// WeightedLossAblation compares Mlong trained with and without the weighted
// softmax loss of §IV-B.
type WeightedLossAblation struct {
	WeightedAcc, UniformAcc float64
}

// AblationWeightedLoss trains two model sets on the same profiled traces —
// one with the class-imbalance weighting, one without — and compares voted
// op accuracy on the first tested trace.
func AblationWeightedLoss(sc Scale) (*WeightedLossAblation, error) {
	profiled, err := sc.CollectTraces(context.Background(), nil, sc.Profiled, StreamProfiled)
	if err != nil {
		return nil, err
	}
	tested, err := trace.Collect(sc.Tested[0], sc.RunConfig(sc.StreamSeed(StreamTested, 0), true))
	if err != nil {
		return nil, err
	}
	score := func(cfg attack.Config) (float64, error) {
		models, err := attack.TrainModels(profiled, cfg)
		if err != nil {
			return 0, err
		}
		rec, err := models.Extract(tested.Samples)
		if err != nil {
			return 0, err
		}
		truth := attack.LetterTruth(tested.Labels(), rec.Base)
		_, overall := attack.LetterAccuracy(rec.Letters, truth)
		return overall, nil
	}

	weighted, err := score(sc.AttackConfig())
	if err != nil {
		return nil, err
	}
	uniform := sc.AttackConfig()
	uniform.MinorClassBoost = 1
	uniformAcc, err := score(uniform)
	if err != nil {
		return nil, err
	}
	return &WeightedLossAblation{WeightedAcc: weighted, UniformAcc: uniformAcc}, nil
}

// Render prints the ablation.
func (r *WeightedLossAblation) Render() string {
	return fmt.Sprintf("Ablation: weighted softmax loss for Mlong\n"+
		"  weighted:  %.1f%%\n"+
		"  uniform:   %.1f%%\n",
		r.WeightedAcc*100, r.UniformAcc*100)
}

// CounterGroupAblation compares the attack trained and applied with only
// one CUPTI counter group enabled against the full three-group selection
// (§IV "Selecting CUPTI counters").
type CounterGroupAblation struct {
	FullAcc, OneGroupAcc float64
}

// AblationCounterGroups recollects traces and retrains the attack under
// each counter selection, scoring voted op accuracy on the last tested
// model.
func AblationCounterGroups(sc Scale) (*CounterGroupAblation, error) {
	score := func(events []cupti.Event) (float64, error) {
		cfgOf := func(seed int64) trace.RunConfig {
			cfg := sc.RunConfig(seed, true)
			cfg.Spy.Events = events
			return cfg
		}
		profiled, err := par.MapCtx(context.Background(), sc.Workers, len(sc.Profiled), func(i int) (*trace.Trace, error) {
			return trace.Collect(sc.Profiled[i], cfgOf(sc.StreamSeed(StreamCounterAblation, i)))
		})
		if err != nil {
			return 0, err
		}
		models, err := attack.TrainModels(profiled, sc.AttackConfig())
		if err != nil {
			return 0, err
		}
		victim, err := trace.Collect(sc.Tested[len(sc.Tested)-1], cfgOf(sc.StreamSeed(StreamCounterAblationVictim, 0)))
		if err != nil {
			return 0, err
		}
		rec, err := models.Extract(victim.Samples)
		if err != nil {
			return 0, err
		}
		truth := attack.LetterTruth(victim.Labels(), rec.Base)
		_, acc := attack.LetterAccuracy(rec.Letters, truth)
		return acc, nil
	}

	full, err := score(nil)
	if err != nil {
		return nil, err
	}
	// Group 2 only: the frame-buffer counters (the strongest single group).
	oneGroup, err := score([]cupti.Event{
		cupti.FBSubp0ReadSectors, cupti.FBSubp1ReadSectors,
		cupti.FBSubp0WriteSectors, cupti.FBSubp1WriteSectors,
	})
	if err != nil {
		return nil, err
	}
	return &CounterGroupAblation{FullAcc: full, OneGroupAcc: oneGroup}, nil
}

// Render prints the ablation.
func (r *CounterGroupAblation) Render() string {
	return fmt.Sprintf("Ablation: CUPTI counter-group selection\n"+
		"  all 3 groups (10 counters): %.1f%%\n"+
		"  frame-buffer group only:    %.1f%%\n",
		r.FullAcc*100, r.OneGroupAcc*100)
}

// MultiTenantResult measures §VI limitation 5: with more than two users
// sharing the GPU, kernel execution becomes less deterministic and the
// attack's accuracy drops.
type MultiTenantResult struct {
	TwoTenantAcc   float64
	ThreeTenantAcc float64
	FourTenantAcc  float64
}

// MultiTenant re-attacks the last tested model with 0, 1 and 2 additional
// background training tenants co-located on the GPU.
func (w *Workbench) MultiTenant() (*MultiTenantResult, error) {
	victim := w.Scale.Tested[len(w.Scale.Tested)-1]
	tenant := w.Scale.Profiled[0]

	score := func(extra int, seed int64) (float64, error) {
		cfg := w.Scale.RunConfig(seed, true)
		for i := 0; i < extra; i++ {
			t := tenant
			t.Name = fmt.Sprintf("tenant-%d", i)
			cfg.BackgroundTenants = append(cfg.BackgroundTenants, t)
		}
		tr, err := trace.Collect(victim, cfg)
		if err != nil {
			return 0, err
		}
		rec, err := w.Models.Extract(tr.Samples)
		if err != nil {
			return 0, err
		}
		truth := attack.LetterTruth(tr.Labels(), rec.Base)
		_, acc := attack.LetterAccuracy(rec.Letters, truth)
		return acc, nil
	}

	// Three independent co-runs against read-only trained models.
	accs, err := par.MapCtx(context.Background(), w.Scale.Workers, 3, func(i int) (float64, error) {
		return score(i, w.Scale.StreamSeed(StreamMultiTenant, i))
	})
	if err != nil {
		return nil, err
	}
	return &MultiTenantResult{TwoTenantAcc: accs[0], ThreeTenantAcc: accs[1], FourTenantAcc: accs[2]}, nil
}

// Render prints the multi-tenant degradation.
func (r *MultiTenantResult) Render() string {
	return fmt.Sprintf("§VI limitation 5: accuracy vs co-located users\n"+
		"  victim + spy:                %.1f%%\n"+
		"  + 1 background tenant:       %.1f%%\n"+
		"  + 2 background tenants:      %.1f%%\n",
		r.TwoTenantAcc*100, r.ThreeTenantAcc*100, r.FourTenantAcc*100)
}
