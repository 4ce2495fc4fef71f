package attack

import (
	"errors"
	"fmt"
	"math"

	"leakydnn/internal/cupti"

	"leakydnn/internal/dnn"
	"leakydnn/internal/gbdt"
	"leakydnn/internal/trace"
)

// otherOpLetters is the Mop output alphabet: the non-conv, non-MatMul op
// letters of Table VII plus the optimizer-update class.
var otherOpLetters = []byte{'B', 'R', 'T', 'S', 'P', 'O'}

// NumOtherOps is Mop's class count.
const NumOtherOps = 6

// otherOpClass maps an op letter to its Mop class index, or -1 when the
// letter is not an OtherOp.
func otherOpClass(letter byte) int {
	for i, l := range otherOpLetters {
		if l == letter {
			return i
		}
	}
	return -1
}

// OtherOpLetter is the inverse of otherOpClass.
func OtherOpLetter(class int) byte {
	if class < 0 || class >= len(otherOpLetters) {
		return '?'
	}
	return otherOpLetters[class]
}

// MergeLetters merges per-sample Mlong and Mop classes into op letters:
// NOP, Conv and MatMul come from Mlong, and any other long class takes its
// letter from Mop.
func MergeLetters(long, op []int) []byte {
	out := make([]byte, len(long))
	for t := range long {
		switch dnn.LongClass(long[t]) {
		case dnn.LongNOP:
			out[t] = 'N'
		case dnn.LongConv:
			out[t] = 'C'
		case dnn.LongMatMul:
			out[t] = 'M'
		default:
			out[t] = OtherOpLetter(op[t])
		}
	}
	return out
}

// HPKind selects one of the five hyper-parameter targets of Table VIII.
type HPKind int

// The hyper-parameter kinds, in Table VIII order.
const (
	HPNumFilters HPKind = iota
	HPFilterSize
	HPNeurons
	HPStride
	HPOptimizer

	NumHPKinds
)

// String names the hyper-parameter kind.
func (k HPKind) String() string {
	switch k {
	case HPNumFilters:
		return "num-filters"
	case HPFilterSize:
		return "filter-size"
	case HPNeurons:
		return "neurons"
	case HPStride:
		return "stride"
	case HPOptimizer:
		return "optimizer"
	}
	return fmt.Sprintf("attack.HPKind(%d)", int(k))
}

// hpValueOf extracts the kind's raw value from an op label, and whether the
// op carries this hyper-parameter at all.
func hpValueOf(kind HPKind, l trace.Label) (int, bool) {
	if l.IsNOP || l.Op == nil {
		return 0, false
	}
	switch kind {
	case HPNumFilters:
		if l.Long == dnn.LongConv {
			return l.Op.NumFilters, true
		}
	case HPFilterSize:
		if l.Long == dnn.LongConv {
			return l.Op.FilterSize, true
		}
	case HPStride:
		if l.Long == dnn.LongConv {
			return l.Op.Stride, true
		}
	case HPNeurons:
		if l.Long == dnn.LongMatMul {
			return l.Op.Neurons, true
		}
	case HPOptimizer:
		if l.Kind.IsOptimizer() {
			return optimizerValue(l.Kind), true
		}
	}
	return 0, false
}

func optimizerValue(k dnn.OpKind) int {
	switch k {
	case dnn.OpApplyGD:
		return int(dnn.OptimizerGD)
	case dnn.OpApplyAdagrad:
		return int(dnn.OptimizerAdagrad)
	case dnn.OpApplyAdam:
		return int(dnn.OptimizerAdam)
	}
	return 0
}

// Range is one detected or ground-truth iteration: a contiguous
// sample index range [Start, End).
type Range struct {
	Start, End int
}

// groundTruthIterations splits a labelled trace into per-iteration sample
// ranges using the ground-truth iteration ids (training-time only; at attack
// time Mgap performs this split from counters alone).
func groundTruthIterations(labels []trace.Label) []Range {
	var out []Range
	cur := -1
	start := 0
	lastBusy := -1
	for i, l := range labels {
		if l.IsNOP {
			continue
		}
		if l.Iteration != cur {
			if cur >= 0 {
				out = append(out, Range{Start: start, End: lastBusy + 1})
			}
			cur = l.Iteration
			start = i
		}
		lastBusy = i
	}
	if cur >= 0 && lastBusy >= start {
		out = append(out, Range{Start: start, End: lastBusy + 1})
	}
	return out
}

// labelledTrace couples a trace with its per-sample ground truth and scaled
// feature vectors.
type labelledTrace struct {
	trace    *trace.Trace
	labels   []trace.Label
	features [][]float64 // scaled counter vectors
	iters    []Range
}

// featurizeAppend appends the feature vector to v, so bulk callers can pack
// rows into one backing array.
func featurizeAppend(v []float64, s cupti.Sample) []float64 {
	raw := s.Vector()
	// Counter values from damaged or hand-built traces can be negative or
	// non-finite; either would turn Log1p into NaN and silently poison every
	// model downstream. Clamp to the representable range instead.
	for i, x := range raw {
		if math.IsNaN(x) || x < 0 {
			raw[i] = 0
		} else if math.IsInf(x, 1) {
			raw[i] = math.MaxFloat64
		}
	}
	tex := raw[0] + raw[1]
	fbRead := raw[2] + raw[3]
	fbWrite := raw[4] + raw[5]
	l2Read := raw[6] + raw[7]

	for _, x := range raw {
		v = append(v, math.Log1p(x))
	}
	return append(v,
		fbRead/(fbWrite+1), // refetch inflates reads relative to writes
		l2Read/(fbRead+1),  // miss intensity of the read stream
		tex/(fbRead+fbWrite+1),
		math.Log1p(fbRead+fbWrite+tex), // overall activity level
	)
}

// FeatureMatrix featurizes and scales every sample with a single backing
// allocation. Row-at-a-time Transform(Featurize(s)) was a top entry in the
// training pipeline's allocation profile — these matrices are rebuilt per
// trace and per extraction. The rows are value-identical to the two-step
// form.
func FeatureMatrix(scaler *gbdt.MinMaxScaler, samples []cupti.Sample) [][]float64 {
	return fillFeatures(new(matrix), scaler, samples)
}

// fillFeatures is FeatureMatrix into m's memory: fresh for a zero matrix,
// an extraction's scratch otherwise.
func fillFeatures(m *matrix, scaler *gbdt.MinMaxScaler, samples []cupti.Sample) [][]float64 {
	rows, backing := m.reserve(len(samples), len(samples)*FeatureDim)
	backing = backing[:0]
	for i, s := range samples {
		start := len(backing)
		backing = featurizeAppend(backing, s)
		row := backing[start:len(backing):len(backing)]
		scaler.TransformInPlace(row)
		rows[i] = row
	}
	return rows
}

// FeatureDim is the length of Featurize's output.
const FeatureDim = 14

// prepare builds the labelled view of every profiled trace under a shared
// scaler fitted across all of them.
func prepare(traces []*trace.Trace) ([]*labelledTrace, [][]float64, error) {
	if len(traces) == 0 {
		return nil, nil, errors.New("attack: no profiling traces")
	}
	total := 0
	for _, tr := range traces {
		total += len(tr.Samples)
	}
	raw := make([][]float64, 0, total)
	backing := make([]float64, 0, total*FeatureDim)
	for _, tr := range traces {
		for _, s := range tr.Samples {
			start := len(backing)
			backing = featurizeAppend(backing, s)
			raw = append(raw, backing[start:len(backing):len(backing)])
		}
	}
	if len(raw) == 0 {
		return nil, nil, errors.New("attack: profiling traces contain no samples")
	}
	out := make([]*labelledTrace, len(traces))
	for i, tr := range traces {
		labels := tr.Labels()
		lt := &labelledTrace{trace: tr, labels: labels, iters: groundTruthIterations(labels)}
		out[i] = lt
	}
	return out, raw, nil
}
