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
	// label sets, so they train concurrently; the voting heads then train on
	// Mlong's and Mop's predictions.
	if err := m.runHeads(ctx, m.featureHeads(lts)); err != nil {
		return nil, err
	}
	voting, err := m.votingHeads(lts)
	if err != nil {
		return nil, err
	}
	if err := m.runHeads(ctx, voting); err != nil {
		return nil, err
	}
	return m, nil
}

// head is one LSTM of the model set with everything that sets it apart from
// the others: its name (the Report key and error prefix), the Models field
// it fills, its geometry and seed, and its training sequences. A voting head
// also carries the held-out validation groups and the flag that records
// whether plain majority voting beat it on them.
type head struct {
	name     string
	net      **lstm.Network
	cfg      lstm.Config
	seqs     []lstm.Sequence
	val      []lstm.Sequence
	majority *bool
}

// runHeads trains the heads on the worker pool — the shared pipeline pool
// when the configuration carries one, a private Workers pool otherwise. Each
// head writes only its own Models fields and returns its Report entries,
// which are merged on the calling goroutine in fixed head order; the Report
// map itself is never touched from a worker.
func (m *Models) runHeads(ctx context.Context, heads []head) error {
	pool := m.Cfg.pool
	if pool == nil {
		pool = par.NewPool(m.Cfg.Workers)
	}
	reports, err := par.MapOnCtx(ctx, pool, len(heads), func(i int) (map[string]float64, error) {
		return m.trainHead(heads[i])
	})
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

// trainHead builds and trains one head, fills its Models field and returns
// its final training accuracy; a voting head then chooses between itself
// and plain majority voting.
func (m *Models) trainHead(h head) (map[string]float64, error) {
	cfg := h.cfg
	cfg.LearningRate = m.Cfg.LearningRate
	cfg.Batch = m.Cfg.Batch
	net, err := lstm.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", h.name, err)
	}
	res, err := net.Train(h.seqs, m.Cfg.Epochs)
	if err != nil {
		return nil, fmt.Errorf("train %s: %w", h.name, err)
	}
	*h.net = net
	rep := map[string]float64{h.name: res[len(res)-1].Accuracy}
	if h.majority != nil {
		if *h.majority, err = selectMajority(net, h.val, cfg.Classes, m.Cfg.VoteIterations); err != nil {
			return nil, err
		}
		rep[h.name+".majority"] = boolToFloat(*h.majority)
	}
	return rep, nil
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

// featureHeads lists Mlong, Mop and each Mhp head that has something to
// learn, and records every Mhp vocabulary. An Mhp head's label sits on the
// last sample of the owning layer's op run (§IV-C) and its vocabulary is the
// set of values present in the profiled models.
func (m *Models) featureHeads(lts []*labelledTrace) []head {
	dim := featureDim(lts)
	long := sequences(lts, longLabel, false)
	heads := []head{
		{name: "Mlong", net: &m.Long, seqs: long, cfg: lstm.Config{
			InputDim:     dim,
			Hidden:       m.Cfg.LongHidden,
			Classes:      int(dnn.NumLongClasses),
			ClassWeights: classWeights(long, int(dnn.NumLongClasses), m.Cfg.MinorClassBoost),
			Seed:         m.Cfg.Seed + 1,
		}},
		{name: "Mop", net: &m.Op, seqs: sequences(lts, opLabel, false), cfg: lstm.Config{
			InputDim: dim,
			Hidden:   m.Cfg.OpHidden,
			Classes:  NumOtherOps,
			Seed:     m.Cfg.Seed + 2,
		}},
	}
	for kind := HPKind(0); kind < NumHPKinds; kind++ {
		vocab := hpVocabulary(lts, kind)
		m.HPVocab[kind] = vocab
		if len(vocab) < 2 {
			// Nothing to learn (e.g. single optimizer profiled); the head
			// stays nil and extraction falls back to the only value.
			continue
		}
		seqs := sequences(lts, hpLabel(kind, vocab), true)
		if len(seqs) == 0 {
			continue
		}
		heads = append(heads, head{name: fmt.Sprintf("Mhp[%s]", kind), net: &m.HP[kind], seqs: seqs, cfg: lstm.Config{
			InputDim: dim,
			Hidden:   m.Cfg.HPHidden,
			Classes:  len(vocab),
			Seed:     m.Cfg.Seed + 10 + int64(kind),
		}})
	}
	return heads
}

// labelFunc gives the class of sample i of a trace, or -1 to leave the
// sample out of the loss.
type labelFunc func(labels []trace.Label, i int) int

func longLabel(labels []trace.Label, i int) int { return int(labels[i].Long) }

func opLabel(labels []trace.Label, i int) int {
	if labels[i].IsNOP {
		return -1
	}
	return otherOpClass(labels[i].Letter)
}

// hpLabel labels the last sample of each op run that carries kind with the
// value's index in vocab.
func hpLabel(kind HPKind, vocab []int) labelFunc {
	index := make(map[int]int, len(vocab))
	for i, v := range vocab {
		index[v] = i
	}
	return func(labels []trace.Label, i int) int {
		if !hpLabelPosition(labels, i, kind) {
			return -1
		}
		v, _ := hpValueOf(kind, labels[i])
		if cls, ok := index[v]; ok {
			return cls
		}
		return -1
	}
}

// sequences builds one sequence per ground-truth iteration. A sparse head
// keeps only the iterations with at least one labelled sample.
func sequences(lts []*labelledTrace, label labelFunc, sparse bool) []lstm.Sequence {
	var seqs []lstm.Sequence
	for _, lt := range lts {
		for _, it := range lt.iters {
			if seq, counted := iterSequence(lt, it, label); counted > 0 || !sparse {
				seqs = append(seqs, seq)
			}
		}
	}
	return seqs
}

// iterSequence labels the samples of one iteration and reports how many
// count. The sequence gets a Mask only when label leaves some sample out:
// a nil mask already counts every one.
func iterSequence(lt *labelledTrace, it Range, label labelFunc) (lstm.Sequence, int) {
	seq := lstm.Sequence{
		Inputs: lt.features[it.Start:it.End],
		Labels: make([]int, it.End-it.Start),
	}
	counted := 0
	for t := range seq.Labels {
		seq.Labels[t] = label(lt.labels, it.Start+t)
		if seq.Labels[t] >= 0 {
			counted++
		}
	}
	if counted < len(seq.Labels) {
		seq.Mask = make([]bool, len(seq.Labels))
		for t, cls := range seq.Labels {
			seq.Mask[t] = cls >= 0
		}
	}
	return seq, counted
}

// classWeights is Mlong's weighted softmax (§IV-B): the paper amplifies the
// loss of the minor classes because long conv ops produce far more samples
// than anything else. We compute the amplification from the actual class
// frequencies — weight ∝ inverse frequency, capped at boost — which reduces
// to the paper's fixed boost on conv-dominated traces and stays correct on
// differently balanced workloads.
func classWeights(seqs []lstm.Sequence, classes int, boost float64) []float64 {
	counts := make([]float64, classes)
	var total float64
	for _, seq := range seqs {
		for _, cls := range seq.Labels {
			counts[cls]++
			total++
		}
	}
	weights := make([]float64, classes)
	for i := range weights {
		w := 1.0
		if counts[i] > 0 {
			w = total / (float64(classes) * counts[i])
		}
		weights[i] = min(max(w, 1), boost)
	}
	return weights
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

// votingHeads builds the Vlong and Vop datasets from Mlong's and Mop's own
// predictions across bundles of consecutive profiled iterations. Every
// fourth bundle is held out: after training, each voting model is validated
// against a plain per-position majority vote on those groups, and a voting
// LSTM that cannot beat the majority baseline on the adversary's own data is
// replaced by it at extraction time — the same model-selection step a real
// attacker performs before deploying.
func (m *Models) votingHeads(lts []*labelledTrace) ([]head, error) {
	n := m.Cfg.VoteIterations
	heads := []head{
		{name: "Vlong", net: &m.VLong, majority: &m.majorityLong, cfg: lstm.Config{
			InputDim: int(dnn.NumLongClasses) * n,
			Hidden:   m.Cfg.VoteHidden,
			Classes:  int(dnn.NumLongClasses),
			Seed:     m.Cfg.Seed + 3,
		}},
		{name: "Vop", net: &m.VOp, majority: &m.majorityOp, cfg: lstm.Config{
			InputDim: NumOtherOps * n,
			Hidden:   m.Cfg.VoteHidden,
			Classes:  NumOtherOps,
			Seed:     m.Cfg.Seed + 4,
		}},
	}
	// sources[i] is the inference head whose votes heads[i] learns from.
	sources := []struct {
		net   *lstm.Network
		label labelFunc
		pad   int
	}{{m.Long, longLabel, int(dnn.LongNOP)}, {m.Op, opLabel, 0}}
	// One RNG corrupts both datasets, so its draws interleave Vlong's and
	// Vop's sequences in the order they are built.
	noise := rand.New(rand.NewSource(m.Cfg.Seed + 77))
	preds := make([][][]int, len(sources))
	base := make([]lstm.Sequence, len(sources))
	for _, lt := range lts {
		// One batched forward per head over all iterations of the trace:
		// bit-identical to per-iteration Predict calls, on wider GEMMs.
		iterInputs := make([][][]float64, len(lt.iters))
		for i, it := range lt.iters {
			iterInputs[i] = lt.features[it.Start:it.End]
		}
		for i, src := range sources {
			var err error
			if preds[i], err = src.net.PredictBatch(iterInputs); err != nil {
				return nil, err
			}
		}
		// Sliding-window groups (stride 1) so the voting models see enough
		// distinct bundles even from short profiling runs. Each group is
		// also emitted with the non-base iterations shifted by ±1 sample —
		// scheduler jitter misaligns real iterations by about that much, and
		// the voting LSTM must learn to be robust to it.
		for start := range lt.iters {
			group := make([]int, 0, n)
			for j := 0; j < n; j++ {
				group = append(group, min(start+j, len(lt.iters)-1))
			}
			// The shifts of a group share its base iteration's labels.
			for i, src := range sources {
				base[i], _ = iterSequence(lt, lt.iters[group[0]], src.label)
			}
			validation := start%4 == 3
			for _, shift := range []int{0, -1, 1} {
				if validation && shift != 0 {
					continue
				}
				for i, src := range sources {
					h, seq := &heads[i], base[i]
					seq.Inputs = voteInputsShifted(preds[i], group, len(seq.Labels), h.cfg.Classes, src.pad, shift)
					if validation {
						// Validate on crops as well as whole sequences: a
						// voting model that memorized absolute positions
						// fails on crops, and the majority baseline wins.
						h.val = append(h.val, seq, cropSeq(seq, len(seq.Labels)/3))
						continue
					}
					// Corrupt a fraction of the input votes: the voting
					// model must be robust to the inference models' mistakes
					// on unseen victims, not memorize the profiled patterns.
					corruptVotes(seq.Inputs, h.cfg.Classes, len(group), 0.12, noise)
					h.seqs = append(h.seqs, seq)
				}
			}
		}
	}
	return heads, nil
}

// selectMajority compares the trained voting LSTM against the per-position
// majority baseline on the held-out validation groups and reports whether
// the majority should be preferred at extraction time.
func selectMajority(net *lstm.Network, val []lstm.Sequence, classes, groupSize int) (bool, error) {
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
// most frequent class (the lowest class index breaks ties).
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

// voteInputsShifted builds the voting model's input sequence: at each
// timestep of the base iteration, the concatenated one-hot predictions of
// every iteration in the group. Iterations whose sample counts differ from
// the base (scheduler jitter shifts a few windows per iteration) are
// linearly time-normalized onto the base timeline, so a vote at base
// position t reads each iteration at the proportional position rather than
// drifting apart toward the end of long sequences. Empty iterations pad with
// padClass. Every non-base iteration's reading position is further offset by
// shift samples, which augments the voting models' training with the
// misalignment they face at attack time (extraction passes 0).
func voteInputsShifted(preds [][]int, group []int, baseLen, classes, padClass, shift int) [][]float64 {
	return fillVotes(new(matrix), preds, group, baseLen, classes, padClass, shift)
}

// fillVotes is voteInputsShifted into m's memory: fresh for a zero matrix,
// an extraction's scratch otherwise.
func fillVotes(m *matrix, preds [][]int, group []int, baseLen, classes, padClass, shift int) [][]float64 {
	width := classes * len(group)
	// One backing array for all timesteps: these sequences are built per
	// group per augmentation shift, so row-at-a-time allocation dominated
	// the training pipeline's allocation profile.
	out, backing := m.reserve(baseLen, baseLen*width)
	clear(backing)
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
