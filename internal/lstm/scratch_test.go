package lstm

import (
	"reflect"
	"sync"
	"testing"
)

// newParams returns a zero parameter-shaped set for cfg in fresh buffers.
func newParams(cfg Config) params {
	h, in, c := cfg.Hidden, cfg.InputDim, cfg.Classes
	return params{
		wx: make([]float64, 4*h*in), wh: make([]float64, 4*h*h), b: make([]float64, 4*h),
		wy: make([]float64, c*h), by: make([]float64, c),
	}
}

// newAdamState returns zero Adam moments for cfg in fresh buffers.
func newAdamState(cfg Config) *adamState {
	return &adamState{m: newParams(cfg), v: newParams(cfg)}
}

// masters returns n's parameters in the master layout: the weight matrices
// in fresh buffers, the biases the network's own.
func (n *Network) masters() params {
	p := newParams(n.cfg)
	p.b, p.by = n.w.b, n.w.by
	n.mastersInto(p)
	return p
}

// newTrainer binds fresh scratch to n for minibatches of up to bcap of seqs.
func newTrainer(n *Network, bcap int, seqs []Sequence) *scratch {
	longest := 0
	for _, s := range seqs {
		longest = max(longest, len(s.Inputs))
	}
	s := new(scratch)
	s.bind(n, bcap, longest, true)
	return s
}

// withColdScratch runs f with the free list emptied, so every pass f makes
// that finds no idle scratch binds fresh memory, and hands the drained
// scratches back afterwards. An idle scratch always holds floats, so a Get
// returning none means the list was empty.
func withColdScratch(f func()) {
	var held []*scratch
	for {
		s := scratchList.Get()
		if s.floats == nil {
			break
		}
		held = append(held, s)
	}
	defer func() {
		for _, s := range held {
			scratchList.Put(s)
		}
	}()
	f()
}

// scratchShapes are networks of different widths, lengths and minibatch
// sizes, so each reuses scratch another has left dirty at another layout.
var scratchShapes = []struct {
	cfg   Config
	seqs  []Sequence
	epoch int
}{
	{Config{InputDim: 3, Hidden: 5, Classes: 4, Seed: 11}, randBatchSeqs(201, 9, 3, 4, true), 2},
	{Config{InputDim: 7, Hidden: 12, Classes: 3, Seed: 12, Batch: 4, ClassWeights: []float64{1, 2, 0.5}}, randBatchSeqs(202, 14, 7, 3, false), 2},
	{Config{InputDim: 2, Hidden: 9, Classes: 6, Seed: 13, Batch: 3}, randBatchSeqs(203, 11, 2, 6, true), 3},
}

// trainShape trains scratchShapes[k] and returns the network, its weight
// hash and its per-epoch stats.
func trainShape(t *testing.T, k int) (*Network, string, []TrainResult) {
	sh := scratchShapes[k]
	n, err := New(sh.cfg)
	if err != nil {
		t.Error(err)
		return nil, "", nil
	}
	res, err := n.Train(sh.seqs, sh.epoch)
	if err != nil {
		t.Error(err)
		return nil, "", nil
	}
	return n, hashParams(n), res
}

// Training on warm scratch — grown by one shape, left dirty by another —
// gives the weights and stats of a cold train, byte for byte.
func TestTrainOnWarmScratchMatchesCold(t *testing.T) {
	cold := make([]string, len(scratchShapes))
	coldStats := make([][]TrainResult, len(scratchShapes))
	for k := range scratchShapes {
		withColdScratch(func() { _, cold[k], coldStats[k] = trainShape(t, k) })
	}
	for _, k := range []int{1, 0, 2, 0, 1, 2, 1} {
		_, hash, stats := trainShape(t, k)
		if hash != cold[k] {
			t.Errorf("shape %d on warm scratch: weights %s, cold %s", k, hash, cold[k])
		}
		if !reflect.DeepEqual(stats, coldStats[k]) {
			t.Errorf("shape %d on warm scratch: stats %v, cold %v", k, stats, coldStats[k])
		}
	}
}

// A trained network's predictions do not change when another Train reuses
// the scratch it trained and predicted on: nothing it holds points there.
func TestPredictionsSurviveScratchReuse(t *testing.T) {
	inputsOf := func(seqs []Sequence) [][][]float64 {
		out := make([][][]float64, len(seqs))
		for i, s := range seqs {
			out[i] = s.Inputs
		}
		return out
	}
	withColdScratch(func() {
		n, hash, _ := trainShape(t, 0)
		inputs := inputsOf(scratchShapes[0].seqs)
		labels, err := n.PredictBatch(inputs)
		if err != nil {
			t.Fatal(err)
		}
		probs, err := n.PredictProbs(inputs[0])
		if err != nil {
			t.Fatal(err)
		}
		trainShape(t, 1)
		trainShape(t, 2)
		if got := hashParams(n); got != hash {
			t.Errorf("weights moved to %s from %s after other networks trained", got, hash)
		}
		again, err := n.PredictBatch(inputs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, labels) {
			t.Error("PredictBatch changed after another Train reused the scratch")
		}
		againProbs, err := n.PredictProbs(inputs[0])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(againProbs, probs) {
			t.Error("PredictProbs changed after another Train reused the scratch")
		}
	})
}

// Concurrent Train and PredictBatch calls share the free list cleanly: each
// borrows its own scratch, and every network trains as it does alone. Run
// under -race.
func TestConcurrentPassesShareScratch(t *testing.T) {
	want := make([]string, len(scratchShapes))
	for k := range scratchShapes {
		_, want[k], _ = trainShape(t, k)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k := g % len(scratchShapes)
			for r := 0; r < 3; r++ {
				n, hash, _ := trainShape(t, k)
				if hash != want[k] {
					t.Errorf("goroutine %d round %d: shape %d trained %s, alone %s", g, r, k, hash, want[k])
					return
				}
				if n == nil {
					return
				}
				if _, err := n.PredictBatch([][][]float64{scratchShapes[k].seqs[0].Inputs}); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
}

// A scratch grows to exactly the largest pass it has served and never
// shrinks, so an idle one holds no more than one pass's working set.
func TestScratchGrowsToLargestPass(t *testing.T) {
	size := func(k int, train bool) int {
		sh := scratchShapes[k]
		n, err := New(sh.cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := new(scratch)
		s.bind(n, max(sh.cfg.Batch, 1), 9, train)
		return len(s.floats)
	}
	s := new(scratch)
	largest := 0
	for _, k := range []int{0, 2, 1, 0, 2, 1} {
		sh := scratchShapes[k]
		n, err := New(sh.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, train := range []bool{false, true} {
			s.bind(n, max(sh.cfg.Batch, 1), 9, train)
			largest = max(largest, size(k, train))
			if got := cap(s.floats); got != largest {
				t.Fatalf("shape %d train=%v: scratch holds %d floats, largest pass %d", k, train, got, largest)
			}
		}
	}
	// A prediction that outgrows a backing last laid out for training
	// leaves no trainer or step view pointing into the old one.
	n, err := New(scratchShapes[1].cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.bind(n, 32, 400, false)
	if s.p.wx != nil || s.g.wx != nil || s.adam.m.wx != nil || s.dz != nil || s.stageZ.coef != nil {
		t.Fatal("a grown prediction scratch still holds the trainer's views of its old backing")
	}
	for _, st := range s.states[len(s.states):cap(s.states)] {
		if st.x != nil {
			t.Fatal("a grown prediction scratch still holds a state view of its old backing")
		}
	}
	for _, st := range s.steps[len(s.steps):cap(s.steps)] {
		if st.probs != nil {
			t.Fatal("a grown prediction scratch still holds a step view of its old backing")
		}
	}
	s.batch[0] = scratchShapes[1].seqs[0].Inputs
	withColdScratch(func() {
		s.release()
		if got := scratchList.Get(); got != s {
			t.Fatal("release did not hand the scratch to the free list")
		}
	})
	if s.w != nil || s.p.b != nil || s.cw != nil {
		t.Fatal("a released scratch still points at the network it was bound to")
	}
	for _, b := range s.batch {
		if b != nil {
			t.Fatal("a released scratch still points at its inputs")
		}
	}
}
