package gbdt

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"leakydnn/internal/wire"
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
	raw := encode(c)
	loaded, err := decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded, c) {
		t.Fatal("round trip changed the classifier")
	}
	if !bytes.Equal(encode(loaded), raw) {
		t.Fatal("re-encoding a decoded classifier changed its bytes")
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

// encode and decode walk a classifier through the wire codec.
func encode(c *Classifier) []byte {
	w := wire.NewEncoder(nil)
	c.Walk(w)
	return w.Bytes()
}

func decode(p []byte) (*Classifier, error) {
	c := new(Classifier)
	w := wire.NewDecoder(p, 0)
	c.Walk(w)
	return c, w.Finish()
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := decode([]byte("nope")); err == nil {
		t.Fatal("garbage accepted")
	}
}

// A tree Walk could not have written is an error on decode: a split on a
// feature past the dim, a split below MaxDepth, a tree cut short or bytes
// past the last tree.
func TestLoadRejectsMalformedTrees(t *testing.T) {
	leaf := &node{feature: -1, value: 0.5}
	split := func(l, r *node) *node { return &node{feature: 1, threshold: 2, left: l, right: r} }
	good := &Classifier{cfg: Config{MaxDepth: 2}, dim: 2, trees: []*node{split(split(leaf, leaf), leaf)}}
	raw := encode(good)
	if _, err := decode(raw); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		p    []byte
		want string
	}{
		"bad feature":   {encode(&Classifier{cfg: good.cfg, dim: 1, trees: good.trees}), "split on a feature past the dim"},
		"too deep":      {encode(&Classifier{cfg: Config{MaxDepth: 1}, dim: 2, trees: good.trees}), "tree deeper than MaxDepth"},
		"missing child": {raw[:len(raw)-9], "bad flag byte"},
		"trailing node": {append(raw[:len(raw):len(raw)], encode(&Classifier{dim: 1})...), "trailing bytes"},
		"zero dim":      {encode(&Classifier{cfg: good.cfg, trees: good.trees}), "invalid feature dim"},
	} {
		if _, err := decode(c.p); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", name, err, c.want)
		}
	}
}

// TestClassifierWalkComplete fills every field of a Classifier's config with
// a distinct value and round-trips it: a field added to Config or Classifier
// without a line in the walk decodes as zero and fails here.
func TestClassifierWalkComplete(t *testing.T) {
	var cfg Config
	v := reflect.ValueOf(&cfg).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int:
			f.SetInt(int64(i + 3))
		case reflect.Float64:
			f.SetFloat(float64(i) + 0.25)
		default:
			t.Fatalf("no test value for Config.%s", v.Type().Field(i).Name)
		}
	}
	if n := reflect.TypeOf(Classifier{}).NumField(); n != 4 {
		t.Fatalf("Classifier has %d fields; walk the new one and count it here", n)
	}
	c := &Classifier{cfg: cfg, base: -0.75, dim: 3, trees: []*node{
		{feature: 2, threshold: 1.5, left: &node{feature: -1, value: -1}, right: &node{feature: -1, value: 2}},
		{feature: -1, value: 0.125},
	}}
	raw := encode(c)
	got, err := decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, c) {
		t.Errorf("round trip lost a field:\n sent %+v\n got  %+v", c, got)
	}
	if !bytes.Equal(encode(got), raw) {
		t.Error("re-encoding a decoded classifier changed its bytes")
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

// Growing a tree allocates its nodes and nothing else per node: rows are
// partitioned in place, and a leaf's node is built only once it is known to
// be a leaf. A Train call therefore allocates its nodes plus a fixed set of
// buffers, where appending fresh child index slices cost every split at
// least two more objects.
func TestTrainAllocsPerNode(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation can change allocation counts")
	}
	rng := rand.New(rand.NewSource(9))
	x := make([][]float64, 400)
	y := make([]int, len(x))
	for i := range x {
		x[i] = []float64{rng.Float64(), rng.NormFloat64(), float64(rng.Intn(5))}
		if x[i][0]+0.3*x[i][1] > 0.5 {
			y[i] = 1
		}
	}
	cfg := Config{Rounds: 12, MaxDepth: 4}
	c, err := Train(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var count func(n *node) int
	count = func(n *node) int {
		if n.feature < 0 {
			return 1
		}
		return 1 + count(n.left) + count(n.right)
	}
	nodes := 0
	for _, tree := range c.trees {
		nodes += count(tree)
	}
	// The classifier, its tree list's growth, and the score, gradient,
	// Hessian, index, sort and partition buffers.
	const fixed = 16
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Train(x, y, cfg); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Train: %.0f objects for %d nodes", allocs, nodes)
	if allocs > float64(nodes+fixed) {
		t.Errorf("Train allocates %.0f objects for %d nodes, ceiling %d: something allocates per node",
			allocs, nodes, nodes+fixed)
	}
}
