package lstm

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// The golden hashes below pin the exact bits of networks trained at the
// with the default per-sequence schedule (Batch=1).
// They were recorded before the batched-GEMM training path existed; any PR
// that changes them has silently altered the numerics every published table
// rests on. The Batch>1 hash pins the *current* batched kernels
// instead: they may be regenerated on purpose (with a CHANGES.md note), never
// by accident.
const (
	goldenPlainB1SHA256    = "1f5379aad2e454689eb4ab52d0035c14e51645aea1c05136adf775b53e1e44f9"
	goldenMaskedB1SHA256   = "387cd9d499cb0d34e6bac3790741a3ecec14aaddfcdd1893a310da597ef52d50"
	goldenPlainBatchSHA256 = "ea1fc9f1beefe470221bfbdb35027fe13610064461e55e6bc0e0bb9741485aa0"
)

// goldenWideSHA256 pins a Hidden=96 network, wide enough that every
// training GEMM is larger than 2^16 multiply-adds. The hashes were recorded
// while kernels of that size still split their output rows across
// goroutines, and were the same for every split; the serial kernels must
// reproduce them.
var goldenWideSHA256 = map[int]string{
	1: "6f6771831e7909cabd0f124878f49795e374d5793b2397b7fe6ca93ab7e7a776",
	8: "7f928442d76438bf1f89f70bffd63b5c7e7bc69d5db36a86b8899d4abdcdfe4a",
}

// goldenPredictionsSHA256 pins the inference output of the four golden
// networks: per-timestep PredictProbs bits and PredictBatch labels over the
// golden sequences plus a ragged batch. It was recorded on the per-sequence
// gemv inference path, before inference moved onto the batch-major forward
// pass, and must never move.
var goldenPredictionsSHA256 = map[string]string{
	"plainB1":        "1865593a6b5e7a563dd0802de74ff69c0354efd86a8deb1e2109b1a4939482e6",
	"maskedWeighted": "cb935ae89afb815b13c12bc07f71477194d835396c1df743fea6c5241bbf75ac",
	"plainBatch4":    "85cba799a91d615b30289e2e408be169344b3d2281d651f44cac038f8b823f0d",
}

// goldenDataset builds a deterministic labelled dataset: the sequences only
// depend on the fixed seed, never on the code under test.
func goldenDataset(masked bool) []Sequence {
	rng := rand.New(rand.NewSource(123))
	var seqs []Sequence
	for i := 0; i < 12; i++ {
		const length = 10
		in := make([][]float64, length)
		labels := make([]int, length)
		var mask []bool
		if masked {
			mask = make([]bool, length)
		}
		for t := 0; t < length; t++ {
			v := make([]float64, 5)
			for j := range v {
				v[j] = rng.NormFloat64()
			}
			in[t] = v
			labels[t] = rng.Intn(4)
			if masked {
				mask[t] = rng.Float64() < 0.7
			}
		}
		seqs = append(seqs, Sequence{Inputs: in, Labels: labels, Mask: mask})
	}
	return seqs
}

// hashParams hashes the raw parameter bits (not the gob encoding, which may
// legitimately grow fields) in a fixed order.
func hashParams(n *Network) string {
	h := sha256.New()
	for _, s := range n.masters().tensors() {
		binary.Write(h, binary.LittleEndian, s)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func trainGolden(t *testing.T, cfg Config, masked bool, epochs int) string {
	t.Helper()
	return hashParams(trainGoldenNet(t, cfg, masked, epochs))
}

func trainGoldenNet(t *testing.T, cfg Config, masked bool, epochs int) *Network {
	t.Helper()
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Train(goldenDataset(masked), epochs); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestGoldenTrainedWeightsPlainBatch1(t *testing.T) {
	got := trainGolden(t, Config{InputDim: 5, Hidden: 8, Classes: 4, Seed: 42}, false, 4)
	if got != goldenPlainB1SHA256 {
		t.Fatalf("FP64 Batch=1 training drifted from the pre-batched-GEMM golden hash:\n got %s\nwant %s",
			got, goldenPlainB1SHA256)
	}
}

func TestGoldenTrainedWeightsMaskedWeightedBatch1(t *testing.T) {
	cfg := Config{
		InputDim: 5, Hidden: 8, Classes: 4, Seed: 42,
		ClassWeights: []float64{1, 2, 1.5, 1},
	}
	got := trainGolden(t, cfg, true, 3)
	if got != goldenMaskedB1SHA256 {
		t.Fatalf("FP64 masked+weighted Batch=1 training drifted from the pre-batched-GEMM golden hash:\n got %s\nwant %s",
			got, goldenMaskedB1SHA256)
	}
}

// Batch=4 sums gradients across the minibatch inside rank-B GEMM updates —
// a reduction order the per-sequence schedule never had, so this hash pins
// the batched trainer itself rather than backward compatibility.
func TestGoldenTrainedWeightsPlainBatch4(t *testing.T) {
	got := trainGolden(t, Config{InputDim: 5, Hidden: 8, Classes: 4, Seed: 42, Batch: 4}, false, 4)
	if got != goldenPlainBatchSHA256 {
		t.Fatalf("FP64 Batch=4 training drifted from its golden hash:\n got %s\nwant %s",
			got, goldenPlainBatchSHA256)
	}
}

func TestGoldenTrainedWeightsWide(t *testing.T) {
	for batch, want := range goldenWideSHA256 {
		cfg := Config{InputDim: 5, Hidden: 96, Classes: 4, Seed: 42, Batch: batch}
		if got := trainGolden(t, cfg, false, 2); got != want {
			t.Errorf("Hidden=96 Batch=%d training drifted from its golden hash:\n got %s\nwant %s",
				batch, got, want)
		}
	}
}

// TestGoldenPredictions hashes what the golden networks predict, so any
// change to the inference arithmetic shows up even when training is
// untouched.
func TestGoldenPredictions(t *testing.T) {
	base := Config{InputDim: 5, Hidden: 8, Classes: 4, Seed: 42}
	masked := base
	masked.ClassWeights = []float64{1, 2, 1.5, 1}
	batch4 := base
	batch4.Batch = 4
	cases := []struct {
		name   string
		cfg    Config
		masked bool
		epochs int
	}{
		{"plainB1", base, false, 4},
		{"maskedWeighted", masked, true, 3},
		{"plainBatch4", batch4, false, 4},
	}

	var inputs [][][]float64
	for _, s := range goldenDataset(false) {
		inputs = append(inputs, s.Inputs)
	}
	rng := rand.New(rand.NewSource(321))
	for length := 1; length <= 12; length++ {
		seq := make([][]float64, length)
		for t := range seq {
			seq[t] = make([]float64, 5)
			for j := range seq[t] {
				seq[t][j] = 3 * rng.NormFloat64()
			}
		}
		inputs = append(inputs, seq)
	}

	for _, tc := range cases {
		n := trainGoldenNet(t, tc.cfg, tc.masked, tc.epochs)
		h := sha256.New()
		for _, seq := range inputs {
			probs, err := n.PredictProbs(seq)
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range probs {
				binary.Write(h, binary.LittleEndian, row)
			}
		}
		labels, err := n.PredictBatch(inputs)
		if err != nil {
			t.Fatal(err)
		}
		for _, seq := range labels {
			for _, l := range seq {
				binary.Write(h, binary.LittleEndian, int64(l))
			}
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != goldenPredictionsSHA256[tc.name] {
			t.Errorf("%s: predictions drifted from their golden hash:\n got %s\nwant %s",
				tc.name, got, goldenPredictionsSHA256[tc.name])
		}
	}
}
