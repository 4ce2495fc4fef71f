package gbdt

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTrainValidation(t *testing.T) {
	good := [][]float64{{1}, {2}}
	if _, err := Train(nil, nil, Config{}); err == nil {
		t.Fatal("empty data accepted")
	}
	if _, err := Train(good, []int{0}, Config{}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := Train(good, []int{0, 3}, Config{}); err == nil {
		t.Fatal("non-binary label accepted")
	}
	if _, err := Train([][]float64{{1}, {2, 3}}, []int{0, 1}, Config{}); err == nil {
		t.Fatal("ragged rows accepted")
	}
	if _, err := Train(good, []int{0, 1}, Config{MaxDepth: -1}); err == nil {
		t.Fatal("negative depth accepted")
	}
}

func TestLearnsThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var x [][]float64
	var y []int
	for i := 0; i < 300; i++ {
		v := rng.Float64() * 10
		x = append(x, []float64{v, rng.NormFloat64()})
		if v > 5 {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	c, err := Train(x, y, Config{Rounds: 30})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := 0; i < 200; i++ {
		v := rng.Float64() * 10
		want := 0
		if v > 5 {
			want = 1
		}
		got, err := c.Predict([]float64{v, rng.NormFloat64()})
		if err != nil {
			t.Fatal(err)
		}
		if got == want {
			correct++
		}
	}
	if acc := float64(correct) / 200; acc < 0.95 {
		t.Fatalf("threshold task accuracy = %.3f, want >= 0.95", acc)
	}
}

func TestLearnsXORWithDepth(t *testing.T) {
	// XOR of two binary features requires depth >= 2 interactions — a
	// single-feature threshold cannot solve it.
	var x [][]float64
	var y []int
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 400; i++ {
		a, b := rng.Intn(2), rng.Intn(2)
		x = append(x, []float64{float64(a) + rng.NormFloat64()*0.05, float64(b) + rng.NormFloat64()*0.05})
		y = append(y, a^b)
	}
	c, err := Train(x, y, Config{Rounds: 40, MaxDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := 0; i < 100; i++ {
		a, b := rng.Intn(2), rng.Intn(2)
		got, err := c.Predict([]float64{float64(a), float64(b)})
		if err != nil {
			t.Fatal(err)
		}
		if got == a^b {
			correct++
		}
	}
	if acc := float64(correct) / 100; acc < 0.95 {
		t.Fatalf("xor accuracy = %.3f, want >= 0.95", acc)
	}
}

func TestPredictProbInUnitInterval(t *testing.T) {
	x := [][]float64{{0}, {1}, {2}, {3}, {4}, {5}, {6}, {7}}
	y := []int{0, 0, 0, 0, 1, 1, 1, 1}
	c, err := Train(x, y, Config{Rounds: 10, MinLeaf: 1})
	if err != nil {
		t.Fatal(err)
	}
	for v := -5.0; v <= 12; v += 0.5 {
		p, err := c.PredictProb([]float64{v})
		if err != nil {
			t.Fatal(err)
		}
		if p < 0 || p > 1 || math.IsNaN(p) {
			t.Fatalf("PredictProb(%v) = %v", v, p)
		}
	}
	if _, err := c.PredictProb([]float64{1, 2}); err == nil {
		t.Fatal("wrong dim accepted")
	}
}

func TestSingleClassDataDoesNotExplode(t *testing.T) {
	x := [][]float64{{1}, {2}, {3}, {4}}
	y := []int{1, 1, 1, 1}
	c, err := Train(x, y, Config{Rounds: 5, MinLeaf: 1})
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.PredictProb([]float64{2.5})
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.8 {
		t.Fatalf("all-positive training gave p=%v, want >= 0.8", p)
	}
}

func TestScalerFitTransform(t *testing.T) {
	x := [][]float64{{0, 10, 5}, {10, 20, 5}, {5, 15, 5}}
	s, err := FitScaler(x)
	if err != nil {
		t.Fatal(err)
	}
	out := s.Transform([]float64{5, 10, 5})
	want := []float64{0.5, 0, 0} // constant feature -> 0
	for j := range want {
		if math.Abs(out[j]-want[j]) > 1e-12 {
			t.Fatalf("Transform[%d] = %v, want %v", j, out[j], want[j])
		}
	}
	// Out-of-range values clamp.
	out = s.Transform([]float64{-100, 100, 7})
	if out[0] != 0 || out[1] != 1 {
		t.Fatalf("clamping wrong: %v", out)
	}
	all := s.TransformAll(x)
	if len(all) != 3 {
		t.Fatalf("TransformAll returned %d rows", len(all))
	}
}

func TestScalerValidation(t *testing.T) {
	if _, err := FitScaler(nil); err == nil {
		t.Fatal("empty fit accepted")
	}
	if _, err := FitScaler([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged fit accepted")
	}
}

// Property: scaled outputs always lie in [0, 1] for data within the fitted
// range.
func TestScalerRangeProperty(t *testing.T) {
	f := func(a, b, c float64) bool {
		for _, v := range []float64{a, b, c} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		x := [][]float64{{a}, {b}, {c}}
		s, err := FitScaler(x)
		if err != nil {
			return false
		}
		for _, row := range x {
			u := s.Transform(row)[0]
			if u < 0 || u > 1 || math.IsNaN(u) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var x [][]float64
	var y []int
	for i := 0; i < 200; i++ {
		a, b := rng.Float64()*4, rng.Float64()*4
		x = append(x, []float64{a, b})
		if a+b > 4 {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	c, err := Train(x, y, Config{Rounds: 20})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		in := []float64{rng.Float64() * 4, rng.Float64() * 4}
		want, err := c.PredictProb(in)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.PredictProb(in)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(want-got) > 1e-12 {
			t.Fatalf("round trip changed prediction: %v vs %v", want, got)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("nope")); err == nil {
		t.Fatal("garbage accepted")
	}
}

// A tree Save could not have written is an error on Load: child indices
// that loop back, share a subtree (a DAG that would rebuild exponentially),
// skip or trail nodes, or a split on a feature past the dimension. The loop
// once recursed until the stack overflowed.
func TestLoadRejectsMalformedTrees(t *testing.T) {
	leaf := nodeRec{Feature: -1, Left: -1, Right: -1}
	split := func(l, r int) nodeRec { return nodeRec{Feature: 0, Left: l, Right: r} }
	cases := map[string][]nodeRec{
		"self loop":     {split(0, 0)},
		"back edge":     {split(1, 2), split(0, 0), leaf},
		"shared child":  {split(1, 1), leaf},
		"skipped node":  {split(2, 3), leaf, leaf, leaf},
		"trailing node": {leaf, leaf},
		"missing child": {split(1, 2), leaf},
		"bad feature":   {{Feature: 3, Left: 1, Right: 2}, leaf, leaf},
	}
	for name, tree := range cases {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(snapshot{Dim: 2, Trees: [][]nodeRec{tree}}); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(&buf); err == nil {
			t.Errorf("%s: malformed tree accepted", name)
		}
	}
}

// Transform returns the scaled copy of x.
func (s *MinMaxScaler) Transform(x []float64) []float64 {
	out := append([]float64(nil), x...)
	s.TransformInPlace(out)
	return out
}

// TransformAll maps Transform over every row.
func (s *MinMaxScaler) TransformAll(x [][]float64) [][]float64 {
	out := make([][]float64, len(x))
	for i, row := range x {
		out[i] = s.Transform(row)
	}
	return out
}
