package attack

import (
	"context"
	"errors"
	"fmt"

	"leakydnn/internal/cupti"
	"leakydnn/internal/dnn"
	"leakydnn/internal/gpu"
	"leakydnn/internal/lstm"
	"leakydnn/internal/trace"
)

// Coverage reports how much of the victim's sample stream an extraction was
// actually able to use, so a recovery from a damaged trace is honest about
// being partial: SegmentsValid + QuarantinedShort + QuarantinedLong ==
// SegmentsDetected, and UsedFallback flags runs where the length filter
// rejected every segment and the pipeline voted over unfiltered ones.
type Coverage struct {
	// Samples is the input stream length.
	Samples int
	// StreamSegments is the number of independent stream segments the split
	// ran over: 1 for a contiguous trace, 1 + number of effective re-anchor
	// cuts for a trace the spy's recovery layer stitched back together.
	StreamSegments int
	// SegmentsDetected is every busy segment Mgap found; SegmentsValid is the
	// subset that survived the iteration length filter.
	SegmentsDetected int
	SegmentsValid    int
	// QuarantinedShort/QuarantinedLong mirror SplitResult's counters.
	QuarantinedShort int
	QuarantinedLong  int
	// UsedFallback is set when no segment passed the filter and the voting
	// stage fell back to the unfiltered segments.
	UsedFallback bool
}

// Recovery is the full output of a MoSConS extraction run against a victim's
// sample stream.
type Recovery struct {
	// Split is the Mgap stage's outcome.
	Split *SplitResult
	// Coverage reconciles what the pipeline used against what it was given.
	Coverage Coverage
	// Used are the iterations fed to the voting models; Base is Used[0], the
	// timeline every voted prediction refers to.
	Used []Range
	Base Range

	// PreVoteLong and PreVoteOp are Mlong/Mop's raw per-iteration,
	// per-sample predictions (Table VII's "pre-voting" arm).
	PreVoteLong [][]int
	PreVoteOp   [][]int

	// VotedLong and VotedOp are the voting models' per-base-sample outputs.
	VotedLong []int
	VotedOp   []int

	// Letters merges the voted predictions into one letter per base sample
	// ('C','M','B','R','T','S','P','O','N').
	Letters []byte

	// Ops is the collapsed op sequence; OpSeq its string form.
	Ops   []CollapsedOp
	OpSeq string

	// Layers is the reconstructed model structure with hyper-parameters.
	Layers []RecoveredLayer
	// Optimizer is the recovered training optimizer.
	Optimizer dnn.OptimizerKind

	// HPClasses holds, per hyper-parameter kind, the per-base-sample argmax
	// class (indexes into Models.HPVocab); -1 where the head is untrained.
	HPClasses [NumHPKinds][]int
}

// Extract runs the complete pipeline of Figure 4 over a victim's CUPTI
// sample stream: split iterations, classify long ops, classify other ops,
// vote across iterations, infer hyper-parameters, collapse, derive layers
// and apply syntax corrections.
func (m *Models) Extract(samples []cupti.Sample) (*Recovery, error) {
	return m.extractSegmented(context.Background(), samples, nil)
}

// ExtractTrace extracts from a collected trace, honoring its re-anchor
// markers: samples on either side of a survived driver reset are treated as
// independent segments instead of one contiguous stream. For traces without
// markers it is identical to Extract(tr.Samples).
func (m *Models) ExtractTrace(tr *trace.Trace) (*Recovery, error) {
	return m.extractSegmented(context.Background(), tr.Samples, tr.Reanchors)
}

// ExtractTraceCtx is ExtractTrace with cooperative cancellation, the entry a
// request-scoped caller (the extraction service) uses: a dead client's
// context abandons the pipeline at the next stage boundary instead of burning
// worker time on an answer nobody will read.
func (m *Models) ExtractTraceCtx(ctx context.Context, tr *trace.Trace) (*Recovery, error) {
	return m.extractSegmented(ctx, tr.Samples, tr.Reanchors)
}

// extractSegmented is the one pipeline behind Extract, ExtractTrace and
// ExtractTraceCtx. It takes explicit re-anchor markers (simulated times at
// which the spy re-established its context after losing it) and honours
// cooperative cancellation: ctx is checked between pipeline stages and
// between per-iteration model passes (the units of meaningful work), so
// cancellation latency is one model pass, not one extraction. An uncancelled
// ctx gives the same recovery as context.Background(); a cancelled one
// returns ctx.Err(). The feature and vote matrices live in scratch borrowed
// for the call (extractScratch), which no part of the Recovery points into.
func (m *Models) extractSegmented(ctx context.Context, samples []cupti.Sample, reanchors []gpu.Nanos) (*Recovery, error) {
	if len(samples) == 0 {
		return nil, errors.New("attack: no samples to extract from")
	}
	// A half-trained model set must fail with a story, not a nil-pointer
	// panic three stages in: every model the unconditional pipeline stages
	// need is checked up front (SplitIterations re-checks Gap for callers
	// that enter there).
	if m.Scaler == nil {
		return nil, errors.New("attack: feature scaler not fitted (models untrained?)")
	}
	if m.Long == nil || m.Op == nil {
		return nil, errors.New("attack: Mlong/Mop not trained")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sc := scratch.Get()
	defer scratch.Put(sc)
	features := fillFeatures(&sc.features, m.Scaler, samples)

	split, err := m.splitSegmentedCtx(ctx, features, trace.SegmentBounds(samples, reanchors))
	if err != nil {
		return nil, err
	}
	iters := split.Valid
	fallback := false
	if len(iters) == 0 {
		iters = split.All
		fallback = len(iters) > 0
	}
	if len(iters) == 0 {
		return nil, errors.New("attack: no iterations detected in sample stream")
	}
	rec := &Recovery{Split: split, Coverage: Coverage{
		Samples:          len(samples),
		StreamSegments:   split.Segments,
		SegmentsDetected: len(split.All),
		SegmentsValid:    len(split.Valid),
		QuarantinedShort: split.QuarantinedShort,
		QuarantinedLong:  split.QuarantinedLong,
		UsedFallback:     fallback,
	}}

	n := m.Cfg.VoteIterations
	for j := 0; j < n; j++ {
		idx := j
		if idx >= len(iters) {
			idx = len(iters) - 1
		}
		rec.Used = append(rec.Used, iters[idx])
	}
	rec.Base = rec.Used[0]

	// Per-iteration Mlong/Mop predictions.
	for _, r := range rec.Used {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		seq := features[r.Start:r.End]
		long, err := m.Long.Predict(seq)
		if err != nil {
			return nil, fmt.Errorf("Mlong: %w", err)
		}
		op, err := m.Op.Predict(seq)
		if err != nil {
			return nil, fmt.Errorf("Mop: %w", err)
		}
		rec.PreVoteLong = append(rec.PreVoteLong, long)
		rec.PreVoteOp = append(rec.PreVoteOp, op)
	}

	// Voting across iterations.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	baseLen := rec.Base.End - rec.Base.Start
	group := make([]int, len(rec.Used))
	for i := range group {
		group[i] = i
	}
	longVotes := fillVotes(&sc.longVotes, rec.PreVoteLong, group, baseLen, int(dnn.NumLongClasses), int(dnn.LongNOP), 0)
	opVotes := fillVotes(&sc.opVotes, rec.PreVoteOp, group, baseLen, NumOtherOps, 0, 0)
	rec.VotedLong, err = m.arbitrate(m.VLong, m.majorityLong, longVotes, rec.PreVoteLong,
		int(dnn.NumLongClasses), len(group), baseLen)
	if err != nil {
		return nil, fmt.Errorf("Vlong: %w", err)
	}
	rec.VotedOp, err = m.arbitrate(m.VOp, m.majorityOp, opVotes, rec.PreVoteOp,
		NumOtherOps, len(group), baseLen)
	if err != nil {
		return nil, fmt.Errorf("Vop: %w", err)
	}

	rec.Letters = MergeLetters(rec.VotedLong, rec.VotedOp)

	// Hyper-parameter heads over the base iteration.
	baseFeatures := features[rec.Base.Start:rec.Base.End]
	for kind := HPKind(0); kind < NumHPKinds; kind++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rec.HPClasses[kind] = make([]int, baseLen)
		if m.HP[kind] == nil {
			for t := range rec.HPClasses[kind] {
				rec.HPClasses[kind][t] = -1
			}
			continue
		}
		pred, err := m.HP[kind].Predict(baseFeatures)
		if err != nil {
			return nil, fmt.Errorf("Mhp[%s]: %w", kind, err)
		}
		rec.HPClasses[kind] = pred
	}

	// Collapse, smooth, parse, correct.
	rec.Ops = smoothOps(collapseOps(rec.Letters))
	rec.OpSeq = OpSeqString(rec.Ops)
	rec.Layers = deriveLayers(rec.Ops)
	m.attachHyperParameters(rec)
	rec.Layers = applySyntaxCorrections(rec.Layers)
	rec.Optimizer = m.recoverOptimizer(rec)
	return rec, nil
}

// arbitrate produces the voted per-sample classes. The voting LSTM and a
// plain per-position majority both decode the vote matrix; besides the
// profiling-time validation choice, the adversary holds out the last
// monitored iteration and keeps whichever decoder agrees with it more —
// unsupervised model selection that catches a voting LSTM whose learned
// patterns do not transfer to this victim.
func (m *Models) arbitrate(net *lstm.Network, forceMajority bool, votes [][]float64,
	preds [][]int, classes, groupSize, baseLen int) ([]int, error) {
	maj := majorityDecode(votes, classes, groupSize)
	if forceMajority || net == nil {
		return maj, nil
	}
	out, err := net.Predict(votes)
	if err != nil {
		return nil, err
	}
	if len(preds) < 3 {
		return out, nil
	}
	holdout := preds[len(preds)-1]
	if len(holdout) == 0 {
		return out, nil
	}
	var agreeLSTM, agreeMaj int
	for t := 0; t < baseLen; t++ {
		pos := t * len(holdout) / baseLen
		if pos >= len(holdout) {
			pos = len(holdout) - 1
		}
		ref := holdout[pos]
		if out[t] == ref {
			agreeLSTM++
		}
		if maj[t] == ref {
			agreeMaj++
		}
	}
	if agreeMaj > agreeLSTM {
		return maj, nil
	}
	return out, nil
}

// CollapseLetters exposes the op-collapsing stage (without smoothing) for
// ablation studies.
func CollapseLetters(letters []byte) []CollapsedOp { return collapseOps(letters) }

// DeriveLayers exposes the forward-structure parser for ablations.
func DeriveLayers(ops []CollapsedOp) []RecoveredLayer { return deriveLayers(ops) }

// EvaluateHP scores the Mhp head of the given kind against a labelled
// trace's ground truth: at every position carrying the kind's label, does
// the head predict the right vocabulary entry?
func (m *Models) EvaluateHP(tr *trace.Trace, kind HPKind) (correct, total int, err error) {
	if m.HP[kind] == nil {
		return 0, 0, fmt.Errorf("attack: Mhp[%s] not trained", kind)
	}
	vocab := m.HPVocab[kind]
	labels := tr.Labels()
	features := FeatureMatrix(m.Scaler, tr.Samples)
	for _, it := range groundTruthIterations(labels) {
		pred, err := m.HP[kind].Predict(features[it.Start:it.End])
		if err != nil {
			return 0, 0, err
		}
		for i := it.Start; i < it.End; i++ {
			if !hpLabelPosition(labels, i, kind) {
				continue
			}
			want, _ := hpValueOf(kind, labels[i])
			total++
			cls := pred[i-it.Start]
			if cls >= 0 && cls < len(vocab) && vocab[cls] == want {
				correct++
			}
		}
	}
	return correct, total, nil
}

// attachHyperParameters reads each layer's hyper-parameter predictions at
// the layer's last defining sample.
func (m *Models) attachHyperParameters(rec *Recovery) {
	for i := range rec.Layers {
		l := &rec.Layers[i]
		at := l.LastSample
		switch l.Kind {
		case dnn.LayerConv:
			l.NumFilters = m.hpValue(rec, HPNumFilters, at)
			l.FilterSize = m.hpValue(rec, HPFilterSize, at)
			l.Stride = m.hpValue(rec, HPStride, at)
		case dnn.LayerFC:
			l.Neurons = m.hpValue(rec, HPNeurons, at)
		}
	}
}

// hpValue resolves the HP head's class at sample t into the raw value; an
// untrained head falls back to the only profiled value (if any).
func (m *Models) hpValue(rec *Recovery, kind HPKind, t int) int {
	vocab := m.HPVocab[kind]
	if len(vocab) == 0 {
		return 0
	}
	if m.HP[kind] == nil || t < 0 || t >= len(rec.HPClasses[kind]) {
		return vocab[0]
	}
	cls := rec.HPClasses[kind][t]
	if cls < 0 || cls >= len(vocab) {
		return vocab[0]
	}
	return vocab[cls]
}

// recoverOptimizer majority-votes the optimizer head over the samples the
// letter merge marked as optimizer updates, falling back to all samples and
// then to the profiled vocabulary.
func (m *Models) recoverOptimizer(rec *Recovery) dnn.OptimizerKind {
	vocab := m.HPVocab[HPOptimizer]
	if len(vocab) == 0 {
		return 0
	}
	if m.HP[HPOptimizer] == nil {
		return dnn.OptimizerKind(vocab[0])
	}
	counts := make(map[int]int)
	for t, letter := range rec.Letters {
		if letter != 'O' {
			continue
		}
		if cls := rec.HPClasses[HPOptimizer][t]; cls >= 0 && cls < len(vocab) {
			counts[vocab[cls]]++
		}
	}
	if len(counts) == 0 {
		for _, cls := range rec.HPClasses[HPOptimizer] {
			if cls >= 0 && cls < len(vocab) {
				counts[vocab[cls]]++
			}
		}
	}
	bestV, bestN := vocab[0], 0
	for v, n := range counts {
		// Ties break toward the smallest optimizer code so the vote does not
		// depend on map iteration order.
		if n > bestN || (n == bestN && n > 0 && v < bestV) {
			bestV, bestN = v, n
		}
	}
	return dnn.OptimizerKind(bestV)
}
