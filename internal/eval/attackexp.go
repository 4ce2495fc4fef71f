package eval

import (
	"context"
	"fmt"
	"strings"

	"leakydnn/internal/attack"
	"leakydnn/internal/dnn"
	"leakydnn/internal/par"
	"leakydnn/internal/trace"
	"leakydnn/internal/zoo"
)

// Table6Result reproduces Table VI: Mgap's NOP/BUSY accuracy per tested
// model.
type Table6Result struct {
	Rows []Table6Row
}

// Table6Row is one tested model's iteration-splitting accuracy.
type Table6Row struct {
	Model            string
	NOPAcc, BusyAcc  float64
	NOPN, BusyN      int
	IterationsFound  int
	IterationsActual int
	// Degradation counters from the trace's Health report. Rendered only
	// when non-zero, so clean-run tables stay byte-identical to the
	// pre-chaos output.
	IterationsQuarantined int
	ChannelsRejected      int
}

// Table6 evaluates the iteration-splitting stage on every tested trace. The
// trained models are read-only during inference, so the per-trace work fans
// out across the workbench's worker pool.
func (w *Workbench) Table6() (*Table6Result, error) {
	rows, err := par.MapCtx(context.Background(), w.Scale.Workers, len(w.Tested), func(i int) (Table6Row, error) {
		tr := w.Tested[i]
		feats := attack.FeatureMatrix(w.Models.Scaler, tr.Samples)
		split, err := w.Models.SplitIterations(feats)
		if err != nil {
			return Table6Row{}, err
		}
		labels := tr.Labels()
		nopAcc, busyAcc, nopN, busyN := attack.GapAccuracy(split.IsNOP, labels)
		row := Table6Row{
			Model:            tr.Model.Name,
			NOPAcc:           nopAcc,
			BusyAcc:          busyAcc,
			NOPN:             nopN,
			BusyN:            busyN,
			IterationsFound:  len(split.Valid),
			IterationsActual: tr.Timeline.Iterations(),
		}
		if tr.Health != nil {
			row.IterationsQuarantined = tr.Health.IterationsQuarantined
			row.ChannelsRejected = tr.Health.SpyChannelsRejected
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &Table6Result{Rows: rows}, nil
}

// Render prints the table in the paper's layout.
func (r *Table6Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table VI: iteration splitting (Mgap) accuracy\n")
	fmt.Fprintf(&b, "%-20s %-6s %-18s %-18s %s\n", "Model", "Op", "# Ops", "Accuracy", "iters found/actual")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-20s %-6s %-18d %-18.3f %d/%d", row.Model, "NOP", row.NOPN, row.NOPAcc, row.IterationsFound, row.IterationsActual)
		if row.IterationsQuarantined > 0 {
			fmt.Fprintf(&b, " (%d quarantined)", row.IterationsQuarantined)
		}
		if row.ChannelsRejected > 0 {
			fmt.Fprintf(&b, " (%d channels rejected)", row.ChannelsRejected)
		}
		fmt.Fprintf(&b, "\n")
		fmt.Fprintf(&b, "%-20s %-6s %-18d %-18.3f\n", "", "BUSY", row.BusyN, row.BusyAcc)
	}
	return b.String()
}

// GapSweepResult reproduces §V-B's robustness sweep: Mgap's NOP accuracy on
// a VGG-style victim across batch sizes and image sizes.
type GapSweepResult struct {
	Rows []GapSweepRow
}

// GapSweepRow is one (batch, side) configuration.
type GapSweepRow struct {
	Batch, Side int
	NOPAcc      float64
}

// GapSweep varies the last tested model's batch and input size and measures
// Mgap's NOP accuracy on each variant.
func (w *Workbench) GapSweep(batches, sides []int) (*GapSweepResult, error) {
	if len(w.Scale.Tested) == 0 {
		return nil, fmt.Errorf("eval: no tested models")
	}
	base := w.Scale.Tested[len(w.Scale.Tested)-1]
	// Stream indices advance only across *valid* variants, so the grid is
	// pre-scanned serially (validation is cheap) before the co-runs fan out;
	// this keeps every variant's seed identical to what the serial sweep
	// assigned.
	type task struct {
		batch, side int
		variant     dnn.Model
		seed        int64
	}
	var tasks []task
	for _, batch := range batches {
		for _, side := range sides {
			variant := zoo.Scale(base, side, batch)
			variant.Name = fmt.Sprintf("%s-b%d-s%d", base.Name, batch, side)
			if _, err := variant.Validate(); err != nil {
				continue // pool depth can exceed tiny inputs; skip illegal combos
			}
			seed := w.Scale.StreamSeed(StreamGapSweep, len(tasks))
			tasks = append(tasks, task{batch: batch, side: side, variant: variant, seed: seed})
		}
	}
	rows, err := par.MapCtx(context.Background(), w.Scale.Workers, len(tasks), func(i int) (GapSweepRow, error) {
		t := tasks[i]
		tr, err := trace.Collect(t.variant, w.Scale.RunConfig(t.seed, true))
		if err != nil {
			return GapSweepRow{}, err
		}
		split, err := w.Models.SplitIterations(attack.FeatureMatrix(w.Models.Scaler, tr.Samples))
		if err != nil {
			return GapSweepRow{}, err
		}
		nopAcc, _, _, _ := attack.GapAccuracy(split.IsNOP, tr.Labels())
		return GapSweepRow{Batch: t.batch, Side: t.side, NOPAcc: nopAcc}, nil
	})
	if err != nil {
		return nil, err
	}
	return &GapSweepResult{Rows: rows}, nil
}

// Render prints the sweep.
func (r *GapSweepResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "§V-B sweep: Mgap NOP accuracy vs batch and image size\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  batch=%-4d side=%-4d NOP accuracy %.3f\n", row.Batch, row.Side, row.NOPAcc)
	}
	return b.String()
}

// Table7Result reproduces Table VII: per-letter op-inference accuracy,
// pre-voting and with voting, for every tested model.
type Table7Result struct {
	Rows []Table7Row
}

// Table7Row is one tested model's op-inference accuracy.
type Table7Row struct {
	Model                   string
	PreVote                 map[byte]float64
	WithVote                map[byte]float64
	OverallPre, OverallVote float64
}

// Table7 runs the op-inference stage on every tested trace and scores both
// arms, fanning the independent extractions across the worker pool.
func (w *Workbench) Table7() (*Table7Result, error) {
	rows, err := par.MapCtx(context.Background(), w.Scale.Workers, len(w.Tested), func(i int) (Table7Row, error) {
		tr := w.Tested[i]
		rec, err := w.Models.Extract(tr.Samples)
		if err != nil {
			return Table7Row{}, err
		}
		labels := tr.Labels()
		truth := attack.LetterTruth(labels, rec.Base)

		// The pre-voting arm merges the first used iteration's predictions.
		preLetters := attack.MergeLetters(rec.PreVoteLong[0], rec.PreVoteOp[0])
		perPre, overallPre := attack.LetterAccuracy(preLetters, truth)
		perVote, overallVote := attack.LetterAccuracy(rec.Letters, truth)
		return Table7Row{
			Model:       tr.Model.Name,
			PreVote:     perPre,
			WithVote:    perVote,
			OverallPre:  overallPre,
			OverallVote: overallVote,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Table7Result{Rows: rows}, nil
}

// Render prints the table in the paper's layout.
func (r *Table7Result) Render() string {
	letters := []byte{'C', 'M', 'B', 'P', 'R', 'T', 'S'}
	var b strings.Builder
	fmt.Fprintf(&b, "Table VII: op inference accuracy (pre-voting / with voting)\n")
	fmt.Fprintf(&b, "%-20s", "Model")
	for _, l := range letters {
		fmt.Fprintf(&b, " %-12c", l)
	}
	fmt.Fprintf(&b, " %-12s\n", "Overall")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-20s", row.Model)
		for _, l := range letters {
			pre, okPre := row.PreVote[l]
			vote, okVote := row.WithVote[l]
			if !okPre && !okVote {
				fmt.Fprintf(&b, " %-12s", "-")
				continue
			}
			fmt.Fprintf(&b, " %3.0f%%/%3.0f%%   ", pre*100, vote*100)
		}
		fmt.Fprintf(&b, " %3.1f%%/%3.1f%%\n", row.OverallPre*100, row.OverallVote*100)
	}
	return b.String()
}

// Table9Result reproduces Table IX: end-to-end layer-sequence and
// hyper-parameter recovery.
type Table9Result struct {
	Rows []Table9Row
}

// Table9Row is one tested model's structure recovery.
type Table9Row struct {
	Model            string
	TrueSignature    string
	RecoveredOpSeq   string
	RecoveredLayers  []attack.RecoveredLayer
	LayerAcc, HPAcc  float64
	Optimizer        dnn.OptimizerKind
	TrueOptimizer    dnn.OptimizerKind
	OptimizerCorrect bool
}

// Table9 runs the full extraction on every tested trace, one worker-pool
// task per model.
func (w *Workbench) Table9() (*Table9Result, error) {
	rows, err := par.MapCtx(context.Background(), w.Scale.Workers, len(w.Tested), func(i int) (Table9Row, error) {
		tr := w.Tested[i]
		rec, err := w.Models.Extract(tr.Samples)
		if err != nil {
			return Table9Row{}, err
		}
		layerAcc, hpAcc := attack.LayerAccuracy(rec.Layers, tr.Model)
		return Table9Row{
			Model:            tr.Model.Name,
			TrueSignature:    dnn.OpSignature(tr.Ops),
			RecoveredOpSeq:   rec.OpSeq,
			RecoveredLayers:  rec.Layers,
			LayerAcc:         layerAcc,
			HPAcc:            hpAcc,
			Optimizer:        rec.Optimizer,
			TrueOptimizer:    tr.Model.Optimizer,
			OptimizerCorrect: rec.Optimizer == tr.Model.Optimizer,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Table9Result{Rows: rows}, nil
}

// Render prints the table in the paper's layout.
func (r *Table9Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table IX: end-to-end structure recovery\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-20s Accuracy_L=%.1f%% Accuracy_HP=%.1f%% optimizer=%v(true %v)\n",
			row.Model, row.LayerAcc*100, row.HPAcc*100, row.Optimizer, row.TrueOptimizer)
		fmt.Fprintf(&b, "  recovered opseq: %s\n", row.RecoveredOpSeq)
		fmt.Fprintf(&b, "  layers:")
		for _, l := range row.RecoveredLayers {
			switch l.Kind {
			case dnn.LayerConv:
				fmt.Fprintf(&b, " C%d,%d,%d,%c", l.FilterSize, l.NumFilters, l.Stride, l.Act.Letter())
			case dnn.LayerFC:
				fmt.Fprintf(&b, " M%d,%c", l.Neurons, l.Act.Letter())
			case dnn.LayerMaxPool:
				fmt.Fprintf(&b, " P")
			}
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}
