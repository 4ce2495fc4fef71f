package attack

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"leakydnn/internal/dnn"
	"leakydnn/internal/gbdt"
	"leakydnn/internal/lstm"
	"leakydnn/internal/par"
	"leakydnn/internal/trace"
)

// Models is the full set of trained MoSConS inference models.
type Models struct {
	Cfg    Config
	Scaler *gbdt.MinMaxScaler
	// Gap is Mgap: the NOP/BUSY iteration splitter.
	Gap *gbdt.Classifier
	// Long is Mlong; VLong is its voting model.
	Long  *lstm.Network
	VLong *lstm.Network
	// Op is Mop; VOp is its voting model.
	Op  *lstm.Network
	VOp *lstm.Network
	// HP are the five Mhp heads; HPVocab maps each head's class index back
	// to the raw hyper-parameter value (built from the profiled models — the
	// adversary cannot predict values she never profiled, the paper's
	// limitation 3).
	HP      [NumHPKinds]*lstm.Network
	HPVocab [NumHPKinds][]int

	// majorityLong and majorityOp record the adversary's validation-time
	// choice to prefer plain majority voting over the voting LSTMs.
	majorityLong, majorityOp bool

	// Report records each LSTM's final training accuracy (for diagnostics
	// and the ablation harness).
	Report map[string]float64
}

// TrainModels profiles the adversary's own models: it fits the scaler and
// Mgap over every sample, trains Mlong/Mop/Mhp on ground-truth-labelled
// iteration sequences, and then trains the voting models on Mlong/Mop's own
// predictions across iterations (§IV-B).
func TrainModels(traces []*trace.Trace, cfg Config) (*Models, error) {
	return TrainModelsCtx(context.Background(), traces, cfg)
}

// TrainModelsCtx is TrainModels with cooperative cancellation, for callers
// that train on demand inside a service (a model-zoo cache miss during
// shutdown, say). Cancellation granularity is one model head: heads already
// training run to completion, no new head starts once ctx is done, and the
// call returns ctx.Err(). An uncancelled ctx trains byte-identical models.
func TrainModelsCtx(ctx context.Context, traces []*trace.Trace, cfg Config) (*Models, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lts, raw, err := prepare(traces)
	if err != nil {
		return nil, err
	}
	scaler, err := gbdt.FitScaler(raw)
	if err != nil {
		return nil, err
	}
	for _, lt := range lts {
		lt.features = FeatureMatrix(scaler, lt.trace.Samples)
	}
	m := &Models{Cfg: cfg, Scaler: scaler, Report: make(map[string]float64)}

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := m.trainGap(lts); err != nil {
		return nil, err
	}
	// Mlong, Mop and the five Mhp heads have disjoint seeds and disjoint
	// label sets, so they train concurrently on the worker pool. Each trainer
	// writes only its own Models field and returns its Report entries, which
	// are merged on the calling goroutine in fixed task order — the Report
	// map itself is never touched from a worker.
	heads := []func() (map[string]float64, error){
		func() (map[string]float64, error) { return m.trainLong(lts) },
		func() (map[string]float64, error) { return m.trainOp(lts) },
	}
	for kind := HPKind(0); kind < NumHPKinds; kind++ {
		kind := kind
		heads = append(heads, func() (map[string]float64, error) {
			return m.trainHPHead(lts, kind)
		})
	}
	if err := m.runTrainers(ctx, heads); err != nil {
		return nil, err
	}
	if err := m.trainVoting(ctx, lts); err != nil {
		return nil, err
	}
	return m, nil
}

// runTrainers executes the independent trainers on the worker pool — the
// shared pipeline pool when the configuration carries one, a private Workers
// pool otherwise — and merges their report entries in fixed task order.
func (m *Models) runTrainers(ctx context.Context, trainers []func() (map[string]float64, error)) error {
	run := func(i int) (map[string]float64, error) {
		return trainers[i]()
	}
	var reports []map[string]float64
	var err error
	if m.Cfg.pool != nil {
		reports, err = par.MapOnCtx(ctx, m.Cfg.pool, len(trainers), run)
	} else {
		reports, err = par.MapCtx(ctx, m.Cfg.Workers, len(trainers), run)
	}
	if err != nil {
		return err
	}
	for _, rep := range reports {
		for k, v := range rep {
			m.Report[k] = v
		}
	}
	return nil
}

// lstmConfig fills the fields every inference LSTM shares from the attack
// configuration; the per-head geometry and seed come from the caller.
func (m *Models) lstmConfig(cfg lstm.Config) lstm.Config {
	cfg.LearningRate = m.Cfg.LearningRate
	cfg.Batch = m.Cfg.Batch
	cfg.Workers = m.Cfg.Workers
	cfg.Precision = m.Cfg.Precision
	return cfg
}

func (m *Models) trainGap(lts []*labelledTrace) error {
	var x [][]float64
	var y []int
	for _, lt := range lts {
		for i, l := range lt.labels {
			x = append(x, lt.features[i])
			if l.IsNOP {
				y = append(y, 1)
			} else {
				y = append(y, 0)
			}
		}
	}
	gap, err := gbdt.Train(x, y, m.Cfg.Gap)
	if err != nil {
		return fmt.Errorf("train Mgap: %w", err)
	}
	m.Gap = gap
	return nil
}

func (m *Models) trainLong(lts []*labelledTrace) (map[string]float64, error) {
	// Weighted softmax (§IV-B): the paper amplifies the loss of the minor
	// classes because long conv ops produce far more samples than anything
	// else. We compute the amplification from the actual class frequencies —
	// weight ∝ inverse frequency, capped at MinorClassBoost — which reduces
	// to the paper's fixed boost on conv-dominated traces and stays correct
	// on differently balanced workloads.
	counts := make([]float64, dnn.NumLongClasses)
	var total float64
	for _, lt := range lts {
		for _, it := range lt.iters {
			for i := it.Start; i < it.End; i++ {
				counts[lt.labels[i].Long]++
				total++
			}
		}
	}
	weights := make([]float64, dnn.NumLongClasses)
	for i := range weights {
		w := 1.0
		if counts[i] > 0 {
			w = total / (float64(len(weights)) * counts[i])
		}
		if w < 1 {
			w = 1
		}
		if w > m.Cfg.MinorClassBoost {
			w = m.Cfg.MinorClassBoost
		}
		weights[i] = w
	}

	net, err := lstm.New(m.lstmConfig(lstm.Config{
		InputDim:     featureDim(lts),
		Hidden:       m.Cfg.LongHidden,
		Classes:      int(dnn.NumLongClasses),
		ClassWeights: weights,
		Seed:         m.Cfg.Seed + 1,
	}))
	if err != nil {
		return nil, err
	}
	var seqs []lstm.Sequence
	for _, lt := range lts {
		for _, it := range lt.iters {
			seq := lstm.Sequence{
				Inputs: lt.features[it.Start:it.End],
				Labels: make([]int, it.End-it.Start),
			}
			for i := it.Start; i < it.End; i++ {
				seq.Labels[i-it.Start] = int(lt.labels[i].Long)
			}
			seqs = append(seqs, seq)
		}
	}
	results, err := net.Train(seqs, m.Cfg.Epochs)
	if err != nil {
		return nil, fmt.Errorf("train Mlong: %w", err)
	}
	m.Long = net
	return map[string]float64{"Mlong": results[len(results)-1].Accuracy}, nil
}

func (m *Models) trainOp(lts []*labelledTrace) (map[string]float64, error) {
	net, err := lstm.New(m.lstmConfig(lstm.Config{
		InputDim: featureDim(lts),
		Hidden:   m.Cfg.OpHidden,
		Classes:  NumOtherOps,
		Seed:     m.Cfg.Seed + 2,
	}))
	if err != nil {
		return nil, err
	}
	var seqs []lstm.Sequence
	for _, lt := range lts {
		for _, it := range lt.iters {
			n := it.End - it.Start
			seq := lstm.Sequence{
				Inputs: lt.features[it.Start:it.End],
				Labels: make([]int, n),
				Mask:   make([]bool, n),
			}
			for i := it.Start; i < it.End; i++ {
				cls := -1
				if !lt.labels[i].IsNOP {
					cls = otherOpClass(lt.labels[i].Letter)
				}
				seq.Labels[i-it.Start] = cls
				seq.Mask[i-it.Start] = cls >= 0
			}
			seqs = append(seqs, seq)
		}
	}
	results, err := net.Train(seqs, m.Cfg.Epochs)
	if err != nil {
		return nil, fmt.Errorf("train Mop: %w", err)
	}
	m.Op = net
	return map[string]float64{"Mop": results[len(results)-1].Accuracy}, nil
}

// trainHPHead builds one Mhp head. The head's label sits on the last sample
// of the owning layer's op run (§IV-C) and the vocabulary is the set of
// values present in the profiled models. The head writes only its own slots
// of HP and HPVocab, so the five heads can train concurrently.
func (m *Models) trainHPHead(lts []*labelledTrace, kind HPKind) (map[string]float64, error) {
	vocab := hpVocabulary(lts, kind)
	m.HPVocab[kind] = vocab
	if len(vocab) < 2 {
		// Nothing to learn (e.g. single optimizer profiled); the head
		// stays nil and extraction falls back to the only value.
		return nil, nil
	}
	index := make(map[int]int, len(vocab))
	for i, v := range vocab {
		index[v] = i
	}

	net, err := lstm.New(m.lstmConfig(lstm.Config{
		InputDim: featureDim(lts),
		Hidden:   m.Cfg.HPHidden,
		Classes:  len(vocab),
		Seed:     m.Cfg.Seed + 10 + int64(kind),
	}))
	if err != nil {
		return nil, err
	}
	var seqs []lstm.Sequence
	for _, lt := range lts {
		for _, it := range lt.iters {
			n := it.End - it.Start
			seq := lstm.Sequence{
				Inputs: lt.features[it.Start:it.End],
				Labels: make([]int, n),
				Mask:   make([]bool, n),
			}
			any := false
			for i := it.Start; i < it.End; i++ {
				seq.Labels[i-it.Start] = -1
				if !hpLabelPosition(lt.labels, i, kind) {
					continue
				}
				v, _ := hpValueOf(kind, lt.labels[i])
				if cls, ok := index[v]; ok {
					seq.Labels[i-it.Start] = cls
					seq.Mask[i-it.Start] = true
					any = true
				}
			}
			if any {
				seqs = append(seqs, seq)
			}
		}
	}
	if len(seqs) == 0 {
		return nil, nil
	}
	results, err := net.Train(seqs, m.Cfg.Epochs)
	if err != nil {
		return nil, fmt.Errorf("train Mhp[%s]: %w", kind, err)
	}
	m.HP[kind] = net
	return map[string]float64{fmt.Sprintf("Mhp[%s]", kind): results[len(results)-1].Accuracy}, nil
}

// hpLabelPosition reports whether sample i is the last sample of an op run
// that carries the given hyper-parameter (the paper labels the run's final
// sample so the LSTM can integrate the whole layer first). Optimizer ops are
// all labelled.
func hpLabelPosition(labels []trace.Label, i int, kind HPKind) bool {
	if _, ok := hpValueOf(kind, labels[i]); !ok {
		return false
	}
	if kind == HPOptimizer {
		return true
	}
	if i+1 >= len(labels) {
		return true
	}
	next := labels[i+1]
	cur := labels[i]
	return next.IsNOP || next.Op == nil || cur.Op == nil ||
		next.Op.Layer != cur.Op.Layer || next.Long != cur.Long
}

// hpVocabulary collects the sorted distinct values of the kind across the
// profiled traces.
func hpVocabulary(lts []*labelledTrace, kind HPKind) []int {
	seen := make(map[int]bool)
	for _, lt := range lts {
		for _, l := range lt.labels {
			if v, ok := hpValueOf(kind, l); ok {
				seen[v] = true
			}
		}
	}
	out := make([]int, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// trainVoting trains Vlong and Vop on Mlong/Mop's own predictions across
// bundles of consecutive profiled iterations, then validates each voting
// model against a plain per-position majority vote on held-out groups. A
// voting LSTM that cannot beat the majority baseline on the adversary's own
// data is replaced by it at extraction time — the same model-selection step
// a real attacker performs before deploying.
func (m *Models) trainVoting(ctx context.Context, lts []*labelledTrace) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	n := m.Cfg.VoteIterations
	noise := rand.New(rand.NewSource(m.Cfg.Seed + 77))

	var longSeqs, opSeqs []lstm.Sequence
	var valLong, valOp []lstm.Sequence
	for _, lt := range lts {
		// One batched forward per head over all iterations of the trace:
		// bit-identical to per-iteration Predict calls, on wider GEMMs.
		iterInputs := make([][][]float64, len(lt.iters))
		for i, it := range lt.iters {
			iterInputs[i] = lt.features[it.Start:it.End]
		}
		preds, err := m.Long.PredictBatch(iterInputs)
		if err != nil {
			return err
		}
		opPreds, err := m.Op.PredictBatch(iterInputs)
		if err != nil {
			return err
		}
		// Sliding-window groups (stride 1) so the voting models see enough
		// distinct bundles even from short profiling runs. Each group is
		// also emitted with the non-base iterations shifted by ±1 sample —
		// scheduler jitter misaligns real iterations by about that much, and
		// the voting LSTM must learn to be robust to it.
		for start := 0; start+1 <= len(lt.iters); start++ {
			group := make([]int, 0, n)
			for j := 0; j < n; j++ {
				idx := start + j
				if idx >= len(lt.iters) {
					idx = len(lt.iters) - 1
				}
				group = append(group, idx)
			}
			base := lt.iters[group[0]]
			baseLen := base.End - base.Start

			validation := start%4 == 3
			for _, shift := range []int{0, -1, 1} {
				longSeq := lstm.Sequence{
					Inputs: voteInputsShifted(preds, group, baseLen, int(dnn.NumLongClasses), int(dnn.LongNOP), shift),
					Labels: make([]int, baseLen),
				}
				opSeq := lstm.Sequence{
					Inputs: voteInputsShifted(opPreds, group, baseLen, NumOtherOps, 0, shift),
					Labels: make([]int, baseLen),
					Mask:   make([]bool, baseLen),
				}
				for t := 0; t < baseLen; t++ {
					l := lt.labels[base.Start+t]
					longSeq.Labels[t] = int(l.Long)
					cls := -1
					if !l.IsNOP {
						cls = otherOpClass(l.Letter)
					}
					opSeq.Labels[t] = cls
					opSeq.Mask[t] = cls >= 0
				}
				if validation {
					if shift == 0 {
						// Validate on crops as well as whole sequences:
						// a voting model that memorized absolute positions
						// fails on crops, and the majority baseline wins.
						valLong = append(valLong, longSeq, cropSeq(longSeq, baseLen/3))
						valOp = append(valOp, opSeq, cropSeq(opSeq, baseLen/3))
					}
					continue
				}
				// Corrupt a fraction of the input votes: the voting model
				// must be robust to the inference models' mistakes on unseen
				// victims, not memorize the profiled patterns.
				corruptVotes(longSeq.Inputs, int(dnn.NumLongClasses), len(group), 0.12, noise)
				corruptVotes(opSeq.Inputs, NumOtherOps, len(group), 0.12, noise)
				longSeqs = append(longSeqs, longSeq)
				opSeqs = append(opSeqs, opSeq)
			}
		}
	}

	// The two voting models are independent once the datasets exist (the
	// shared noise RNG is fully consumed above), so they train concurrently
	// like the inference heads.
	return m.runTrainers(ctx, []func() (map[string]float64, error){
		func() (map[string]float64, error) { return m.trainVlong(longSeqs, valLong, n) },
		func() (map[string]float64, error) { return m.trainVop(opSeqs, valOp, n) },
	})
}

func (m *Models) trainVlong(seqs, val []lstm.Sequence, n int) (map[string]float64, error) {
	vlong, err := lstm.New(m.lstmConfig(lstm.Config{
		InputDim: int(dnn.NumLongClasses) * n,
		Hidden:   m.Cfg.VoteHidden,
		Classes:  int(dnn.NumLongClasses),
		Seed:     m.Cfg.Seed + 3,
	}))
	if err != nil {
		return nil, err
	}
	res, err := vlong.Train(seqs, m.Cfg.Epochs)
	if err != nil {
		return nil, fmt.Errorf("train Vlong: %w", err)
	}
	m.VLong = vlong
	m.majorityLong, err = m.selectMajority(vlong, val, int(dnn.NumLongClasses), n)
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"Vlong":          res[len(res)-1].Accuracy,
		"Vlong.majority": boolToFloat(m.majorityLong),
	}, nil
}

func (m *Models) trainVop(seqs, val []lstm.Sequence, n int) (map[string]float64, error) {
	vop, err := lstm.New(m.lstmConfig(lstm.Config{
		InputDim: NumOtherOps * n,
		Hidden:   m.Cfg.VoteHidden,
		Classes:  NumOtherOps,
		Seed:     m.Cfg.Seed + 4,
	}))
	if err != nil {
		return nil, err
	}
	res, err := vop.Train(seqs, m.Cfg.Epochs)
	if err != nil {
		return nil, fmt.Errorf("train Vop: %w", err)
	}
	m.VOp = vop
	m.majorityOp, err = m.selectMajority(vop, val, NumOtherOps, n)
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"Vop":          res[len(res)-1].Accuracy,
		"Vop.majority": boolToFloat(m.majorityOp),
	}, nil
}

// selectMajority compares the trained voting LSTM against the per-position
// majority baseline on the held-out validation groups and reports whether
// the majority should be preferred at extraction time.
func (m *Models) selectMajority(net *lstm.Network, val []lstm.Sequence, classes, groupSize int) (bool, error) {
	if len(val) == 0 {
		return false, nil
	}
	valInputs := make([][][]float64, len(val))
	for i, seq := range val {
		valInputs[i] = seq.Inputs
	}
	// Batched inference is bit-identical to per-sequence Predict calls.
	preds, err := net.PredictBatch(valInputs)
	if err != nil {
		return false, err
	}
	var lstmCorrect, majCorrect, total int
	for i, seq := range val {
		pred := preds[i]
		for t := range seq.Inputs {
			if seq.Mask != nil && !seq.Mask[t] {
				continue
			}
			total++
			if pred[t] == seq.Labels[t] {
				lstmCorrect++
			}
			if majorityOfVotes(seq.Inputs[t], classes, groupSize) == seq.Labels[t] {
				majCorrect++
			}
		}
	}
	if total == 0 {
		return false, nil
	}
	return majCorrect > lstmCorrect, nil
}

// majorityOfVotes decodes a concatenated one-hot vote vector and returns the
// most frequent class (earliest iteration breaks ties).
func majorityOfVotes(vec []float64, classes, groupSize int) int {
	counts := make([]int, classes)
	for j := 0; j < groupSize; j++ {
		for c := 0; c < classes; c++ {
			if vec[j*classes+c] > 0.5 {
				counts[c]++
				break
			}
		}
	}
	best, bestN := 0, -1
	for c, n := range counts {
		if n > bestN {
			best, bestN = c, n
		}
	}
	return best
}

// cropSeq returns the suffix of seq starting at from (whole sequence when
// the crop would be degenerate). Masked sequences keep their mask; unmasked
// ones stay unmasked.
func cropSeq(seq lstm.Sequence, from int) lstm.Sequence {
	if from <= 0 || from >= len(seq.Inputs)-1 {
		return seq
	}
	out := lstm.Sequence{
		Inputs: seq.Inputs[from:],
		Labels: seq.Labels[from:],
	}
	if seq.Mask != nil {
		out.Mask = seq.Mask[from:]
	}
	return out
}

// corruptVotes randomly replaces a fraction of the encoded one-hot votes of
// the non-base iterations with uniformly random classes.
func corruptVotes(inputs [][]float64, classes, groupSize int, frac float64, rng *rand.Rand) {
	for _, vec := range inputs {
		for j := 1; j < groupSize; j++ {
			if rng.Float64() >= frac {
				continue
			}
			for c := 0; c < classes; c++ {
				vec[j*classes+c] = 0
			}
			vec[j*classes+rng.Intn(classes)] = 1
		}
	}
}

// majorityDecode applies majorityOfVotes across a whole vote sequence.
func majorityDecode(votes [][]float64, classes, groupSize int) []int {
	out := make([]int, len(votes))
	for t, vec := range votes {
		out[t] = majorityOfVotes(vec, classes, groupSize)
	}
	return out
}

func boolToFloat(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// voteInputs builds the voting model's input sequence: at each timestep of
// the base iteration, the concatenated one-hot predictions of every
// iteration in the group. Iterations whose sample counts differ from the
// base (scheduler jitter shifts a few windows per iteration) are linearly
// time-normalized onto the base timeline, so a vote at base position t reads
// each iteration at the proportional position rather than drifting apart
// toward the end of long sequences. Empty iterations pad with padClass.
func voteInputs(preds [][]int, group []int, baseLen, classes, padClass int) [][]float64 {
	return voteInputsShifted(preds, group, baseLen, classes, padClass, 0)
}

// voteInputsShifted additionally offsets every non-base iteration's reading
// position by shift samples, used to augment the voting models' training
// with the misalignment they face at attack time.
func voteInputsShifted(preds [][]int, group []int, baseLen, classes, padClass, shift int) [][]float64 {
	out := make([][]float64, baseLen)
	width := classes * len(group)
	// One backing array for all timesteps: these sequences are built per
	// group per augmentation shift, so row-at-a-time allocation dominated
	// the training pipeline's allocation profile.
	backing := make([]float64, baseLen*width)
	for t := 0; t < baseLen; t++ {
		vec := backing[t*width : (t+1)*width : (t+1)*width]
		for j, idx := range group {
			cls := padClass
			if n := len(preds[idx]); n > 0 {
				pos := t * n / baseLen
				if j > 0 {
					pos += shift
				}
				if pos < 0 {
					pos = 0
				}
				if pos >= n {
					pos = n - 1
				}
				cls = preds[idx][pos]
			}
			if cls >= 0 && cls < classes {
				vec[j*classes+cls] = 1
			}
		}
		out[t] = vec
	}
	return out
}

func featureDim(lts []*labelledTrace) int {
	for _, lt := range lts {
		if len(lt.features) > 0 {
			return len(lt.features[0])
		}
	}
	return 0
}
