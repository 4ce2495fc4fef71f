package mat

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// transcendentalEdges are the inputs where Exp and Tanh change branch:
// signed zeros, infinities, NaN, the overflow threshold, the edge of the
// plain exponent range and the denormal band down to underflow, and Tanh's
// switch points at 0.625 and half of log(2**127) — each with its float64
// neighbours.
func transcendentalEdges() []float64 {
	points := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		709.78, -745.13, 709.782712893384, 709.0, -708.39, -708.4, -709.0,
		-720, -730, -740, -744.4, -745.1332191019411, -746,
		0.625, -0.625, tanhSat, -tanhSat, 354.8, -354.8, 354.9, 355,
		1e-300, -1e-300, 5e-324, -5e-324, 1, -1, 0.5, 20, -20, 44, -44,
		math.MaxFloat64, -math.MaxFloat64,
	}
	var out []float64
	for _, p := range points {
		out = append(out, p, math.Nextafter(p, math.Inf(1)), math.Nextafter(p, math.Inf(-1)))
	}
	return out
}

// goldenTranscendentalsSHA256 pins the bits of Exp and Tanh over
// transcendentalEdges and 200k seeded inputs. The ports use only correctly
// rounded operations and no fusable product, so the value is the same on
// every CPU and architecture; a change means the ports moved.
const goldenTranscendentalsSHA256 = "7069cb9bd0bc99ac107b8bebd6a83db3306ec0612b0316e3d1ee1038c4030e96"

func TestTranscendentalsGolden(t *testing.T) {
	h := sha256.New()
	put := func(x float64) {
		binary.Write(h, binary.LittleEndian, math.Float64bits(Exp(x)))
		binary.Write(h, binary.LittleEndian, math.Float64bits(Tanh(x)))
	}
	for _, x := range transcendentalEdges() {
		put(x)
	}
	rng := rand.New(rand.NewSource(2020))
	for i := 0; i < 100000; i++ {
		put(-745 + 1455*rng.Float64())
		put(-20 + 40*rng.Float64())
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != goldenTranscendentalsSHA256 {
		t.Fatalf("Exp/Tanh bits hash %s, golden %s", got, goldenTranscendentalsSHA256)
	}
}

// Where math.Exp takes its FMA branch (AVX and FMA present), the ports must
// equal the standard library bit for bit.
func TestExpTanhMatchStdlibFMABranch(t *testing.T) {
	if !hasAVX2FMA {
		t.Skip("math.Exp takes its non-FMA branch here, or the CPU state is unknown")
	}
	for _, x := range transcendentalEdges() {
		if !sameBits(Exp(x), math.Exp(x)) || !sameBits(Tanh(x), math.Tanh(x)) {
			t.Fatalf("x=%v (%#x): Exp %v vs %v, Tanh %v vs %v",
				x, math.Float64bits(x), Exp(x), math.Exp(x), Tanh(x), math.Tanh(x))
		}
	}
	n := 10_000_000
	if testing.Short() {
		n = 200_000
	}
	rng := rand.New(rand.NewSource(99))
	for _, r := range []struct{ lo, hi float64 }{{-745, 710}, {-20, 20}} {
		for i := 0; i < n; i++ {
			x := r.lo + (r.hi-r.lo)*rng.Float64()
			if e, w := Exp(x), math.Exp(x); math.Float64bits(e) != math.Float64bits(w) {
				t.Fatalf("Exp(%v) = %v, math.Exp %v", x, e, w)
			}
			if e, w := Tanh(x), math.Tanh(x); math.Float64bits(e) != math.Float64bits(w) {
				t.Fatalf("Tanh(%v) = %v, math.Tanh %v", x, e, w)
			}
		}
	}
}

// Tanh keeps the sign of zero, as math.Tanh does.
func TestTanhSignedZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	row := []float64{negZero, 0, negZero, 0.1}
	TanhInto(row, row)
	if !math.Signbit(Tanh(negZero)) || !math.Signbit(row[0]) || !math.Signbit(row[2]) || math.Signbit(row[1]) {
		t.Fatalf("tanh of signed zeros lost the sign: scalar %v, row %v", Tanh(negZero), row)
	}
}

// testAdamCoef is a realistic Adam step's coefficients.
var testAdamCoef = AdamCoef{
	Beta1: 0.9, OneMinusBeta1: 1 - 0.9, Beta2: 0.999, OneMinusBeta2: 1 - 0.999,
	LR: 1e-2, C1: 1 - math.Pow(0.9, 3), C2: 1 - math.Pow(0.999, 3), Eps: 1e-8,
}

// FuzzActivationRows: for arbitrary float64 bit patterns and row lengths,
// every row kernel must equal its scalar loop bit for bit (a NaN only as a
// NaN): SigmoidInto, TanhInto and the softmax's exp row against Sigmoid,
// Tanh and Exp, and AdamStep against adamScalar. On CPUs without the
// kernels both sides are the scalar code.
func FuzzActivationRows(f *testing.F) {
	edges := transcendentalEdges()
	for i := 0; i+4 <= len(edges); i += 3 {
		f.Add(floatBytes(edges[i : i+4]...))
	}
	f.Add(floatBytes(edges...))
	f.Add(floatBytes(0.1, -0.2, 0.3))
	f.Add(floatBytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		src := make([]float64, len(data)/8)
		for i := range src {
			src[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		for _, k := range activationRows {
			got := make([]float64, len(src))
			k.row(got, src)
			for i, x := range src {
				if want := k.f(x); !sameBits(got[i], want) {
					t.Fatalf("%s row[%d] of %d: x=%v (%#x): got %v (%#x), scalar %v (%#x)",
						k.name, i, len(src), x, math.Float64bits(x), got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
				}
			}
		}

		// Adam: the moments and parameters are rotations of the input, so
		// every slot sees arbitrary bits.
		n := len(src)
		rot := func(r int) []float64 {
			out := make([]float64, n)
			for i := range out {
				out[i] = src[(i+r)%n]
			}
			return out
		}
		grad := rot(0)
		p1, m1, v1 := rot(1), rot(2), rot(3)
		p2, m2, v2 := rot(1), rot(2), rot(3)
		AdamStep(p1, grad, m1, v1, &testAdamCoef)
		adamScalar(p2, grad, m2, v2, &testAdamCoef)
		for i := range grad {
			if !sameBits(p1[i], p2[i]) || !sameBits(m1[i], m2[i]) || !sameBits(v1[i], v2[i]) {
				t.Fatalf("adam[%d] of %d: g=%v: (p,m,v) = (%v,%v,%v), scalar (%v,%v,%v)",
					i, n, grad[i], p1[i], m1[i], v1[i], p2[i], m2[i], v2[i])
			}
		}
	})
}

// activationRows pairs each row function with the scalar function it must
// equal element by element.
var activationRows = []struct {
	name string
	row  func(dst, src []float64)
	f    func(float64) float64
}{{"sigmoid", SigmoidInto, Sigmoid}, {"tanh", TanhInto, Tanh}, {"exp", expInto, Exp}}

// sameBits reports whether a and b have the same bits, or are both NaN.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func floatBytes(v ...float64) []byte {
	out := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(x))
	}
	return out
}

// The row kernels against their scalar functions on seeded rows of every
// tail length, including groups that straddle the plain exponent range's
// edges and so mix kernel and scalar groups within one row, and then on
// 2M dense inputs per kernel: a lane that rounds one step differently
// (an unfused FMA, say) differs from the port only on rare inputs.
func TestActivationRowsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	edges := transcendentalEdges()
	n := 1 << 20
	if testing.Short() {
		n = 1 << 14
	}
	for _, r := range []struct{ lo, hi float64 }{{-20, 20}, {-745, 710}} {
		src := make([]float64, n)
		for i := range src {
			src[i] = r.lo + (r.hi-r.lo)*rng.Float64()
		}
		got := make([]float64, n)
		for _, k := range activationRows {
			k.row(got, src)
			for i, x := range src {
				if want := k.f(x); !sameBits(got[i], want) {
					t.Fatalf("%s at x=%v: got %v, scalar %v", k.name, x, got[i], want)
				}
			}
		}
	}
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(45)
		src := make([]float64, n)
		scale := []float64{1, 8, 40, 400, 800}[trial%5]
		for i := range src {
			src[i] = scale * (2*rng.Float64() - 1)
			if rng.Intn(16) == 0 {
				src[i] = edges[rng.Intn(len(edges))]
			}
		}
		for _, k := range activationRows {
			got := make([]float64, n)
			k.row(got, src)
			for i, x := range src {
				if want := k.f(x); !sameBits(got[i], want) {
					t.Fatalf("%s row[%d] of %d: x=%v: got %v, scalar %v", k.name, i, n, x, got[i], want)
				}
			}
		}
	}
}

func BenchmarkSigmoidInto40(b *testing.B) { benchRow(b, SigmoidInto) }
func BenchmarkTanhInto40(b *testing.B)    { benchRow(b, TanhInto) }

func benchRow(b *testing.B, row func(dst, src []float64)) {
	rng := rand.New(rand.NewSource(1))
	src := make([]float64, 40)
	for i := range src {
		src[i] = 4 * rng.NormFloat64()
	}
	dst := make([]float64, len(src))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row(dst, src)
	}
}

func BenchmarkAdamStep(b *testing.B) {
	const n = 4096
	rng := rand.New(rand.NewSource(1))
	p, g, m, v := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range g {
		p[i], g[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	b.SetBytes(n * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AdamStep(p, g, m, v, &testAdamCoef)
	}
}
