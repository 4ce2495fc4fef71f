package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// softmax returns the softmax of logits as a fresh slice.
func softmax(logits []float64) []float64 {
	out := make([]float64, len(logits))
	SoftmaxInto(out, logits)
	return out
}

func TestSoftmaxSumsToOne(t *testing.T) {
	p := softmax([]float64{1, 2, 3, 1000})
	var sum float64
	for _, v := range p {
		if math.IsNaN(v) || v < 0 {
			t.Fatalf("softmax produced invalid probability %v", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("softmax sum = %v, want 1", sum)
	}
	if ArgMax(p) != 3 {
		t.Fatalf("softmax argmax = %d, want 3", ArgMax(p))
	}
}

// Property: softmax is invariant to a constant shift of the logits.
func TestSoftmaxShiftInvariance(t *testing.T) {
	f := func(a, b, c, shift float64) bool {
		for _, v := range []float64{a, b, c, shift} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 100 {
				return true // skip degenerate random inputs
			}
		}
		p := softmax([]float64{a, b, c})
		q := softmax([]float64{a + shift, b + shift, c + shift})
		for i := range p {
			if math.Abs(p[i]-q[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// ArgMax breaks ties toward the lowest index and reports -1 for an empty
// slice; label decoding relies on both.
func TestVecHelpers(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want int
	}{
		{nil, -1},
		{[]float64{4}, 0},
		{[]float64{1, 3, 2}, 1},
		{[]float64{2, 5, 5, 1}, 1},
		{[]float64{-1, -1, -1}, 0},
	} {
		if got := ArgMax(c.v); got != c.want {
			t.Errorf("ArgMax(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestMeanStd(t *testing.T) {
	v := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(v); got != 5 {
		t.Fatalf("Mean = %v, want 5", got)
	}
	if got := Std(v); math.Abs(got-2) > 1e-12 {
		t.Fatalf("Std = %v, want 2", got)
	}
	if Mean(nil) != 0 || Std(nil) != 0 {
		t.Fatal("Mean/Std of empty slice should be 0")
	}
}

func TestSigmoid(t *testing.T) {
	if got := Sigmoid(0); got != 0.5 {
		t.Fatalf("Sigmoid(0) = %v, want 0.5", got)
	}
	if got := Sigmoid(100); got < 0.999 {
		t.Fatalf("Sigmoid(100) = %v, want ~1", got)
	}
}

// SoftmaxInto must equal the textbook max-shifted softmax bit for bit, also
// when dst and logits are the same slice.
func TestSoftmaxIntoMatchesSoftmaxAndAliases(t *testing.T) {
	logits := []float64{3, -2, 0.5, 700, -700}
	want := make([]float64, len(logits))
	var sum float64
	for i, v := range logits {
		want[i] = Exp(v - 700)
		sum += want[i]
	}
	for i := range want {
		want[i] /= sum
	}
	dst := make([]float64, len(logits))
	SoftmaxInto(dst, logits)
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("SoftmaxInto[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
	// Aliased: dst and logits are the same slice.
	buf := append([]float64(nil), logits...)
	SoftmaxInto(buf, buf)
	for i := range want {
		if buf[i] != want[i] {
			t.Fatalf("aliased SoftmaxInto[%d] = %v, want %v", i, buf[i], want[i])
		}
	}
	SoftmaxInto(nil, nil) // empty input must be a no-op, not a panic
}

func TestIntoKernelsPanicOnShapeMismatch(t *testing.T) {
	for name, fn := range map[string]func(){
		"SoftmaxInto dims": func() { SoftmaxInto(make([]float64, 2), make([]float64, 3)) },
		"GemmInto dst":     func() { GemmInto(make([]float64, 3), make([]float64, 6), make([]float64, 3), 2, 3, 1) },
		"GemmTAAccum dst":  func() { GemmTAAccum(make([]float64, 2), make([]float64, 6), make([]float64, 2), 2, 3, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: shape mismatch not rejected", name)
				}
			}()
			fn()
		}()
	}
}

// rows*cols overflowing int must panic instead of allocating a wrong-sized
// (wrapped-around) backing slice that would mis-index later.
func TestDimensionOverflowPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	huge := math.MaxInt/2 + 1
	for name, fn := range map[string]func(){
		"overflow": func() { RandnT(huge, 4, 1, rng) },
		"negative": func() { RandnT(-1, 4, 1, rng) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RandnT with %s dimensions did not panic", name)
				}
			}()
			fn()
		}()
	}
	// Degenerate-but-valid shapes must still work.
	if v := RandnT(0, 5, 1, rng); len(v) != 0 {
		t.Errorf("RandnT(0,5) allocated %d elements", len(v))
	}
	if v := RandnT(5, 0, 1, rng); len(v) != 0 {
		t.Errorf("RandnT(5,0) allocated %d elements", len(v))
	}
}
