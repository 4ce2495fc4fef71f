package workload

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSyntheticValidation(t *testing.T) {
	if _, err := Synthetic(0, 8, 3, 10, 1); err == nil {
		t.Fatal("empty dataset accepted")
	}
	if _, err := Synthetic(10, 0, 3, 10, 1); err == nil {
		t.Fatal("zero side accepted")
	}
	if _, err := Synthetic(10, 8, 3, 0, 1); err == nil {
		t.Fatal("zero classes accepted")
	}
}

func TestExamplesDeterministicAndBounded(t *testing.T) {
	d, err := Synthetic(16, 8, 3, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	a, err := d.Example(5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Example(5)
	if err != nil {
		t.Fatal(err)
	}
	if a.Label != b.Label {
		t.Fatal("labels not deterministic")
	}
	for i := range a.Pixels {
		if a.Pixels[i] != b.Pixels[i] {
			t.Fatal("pixels not deterministic")
		}
		if a.Pixels[i] < 0 || a.Pixels[i] >= 1 {
			t.Fatalf("pixel %d = %v out of [0,1)", i, a.Pixels[i])
		}
	}
	if a.Label < 0 || a.Label >= 10 {
		t.Fatalf("label %d out of range", a.Label)
	}
	if _, err := d.Example(16); err == nil {
		t.Fatal("out-of-range example accepted")
	}
}

func TestExamplesDiffer(t *testing.T) {
	d, err := Synthetic(4, 8, 1, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := d.Example(0)
	b, _ := d.Example(1)
	same := true
	for i := range a.Pixels {
		if a.Pixels[i] != b.Pixels[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("distinct examples have identical pixels")
	}
}

// Resizing the paper's 64->224 step: dimensions scale, values interpolate
// within the source range.
func TestResize(t *testing.T) {
	d, err := Synthetic(2, 64, 3, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	img, _ := d.Example(0)
	big, err := img.Resize(224)
	if err != nil {
		t.Fatal(err)
	}
	if big.Side != 224 || len(big.Pixels) != 224*224*3 {
		t.Fatalf("resized to %d (%d pixels)", big.Side, len(big.Pixels))
	}
	if big.Label != img.Label {
		t.Fatal("resize lost the label")
	}
	var lo, hi float32 = 1, 0
	for _, p := range img.Pixels {
		if p < lo {
			lo = p
		}
		if p > hi {
			hi = p
		}
	}
	for i, p := range big.Pixels {
		if p < lo-1e-6 || p > hi+1e-6 {
			t.Fatalf("resized pixel %d = %v outside source range [%v, %v]", i, p, lo, hi)
		}
	}
	if _, err := img.Resize(0); err == nil {
		t.Fatal("zero-side resize accepted")
	}
}

// Bilinear resize to the same size must reproduce the image.
func TestResizeIdentity(t *testing.T) {
	d, _ := Synthetic(1, 16, 2, 4, 3)
	img, _ := d.Example(0)
	same, err := img.Resize(16)
	if err != nil {
		t.Fatal(err)
	}
	for i := range img.Pixels {
		if math.Abs(float64(img.Pixels[i]-same.Pixels[i])) > 1e-6 {
			t.Fatalf("identity resize changed pixel %d: %v -> %v", i, img.Pixels[i], same.Pixels[i])
		}
	}
}

func TestBatching(t *testing.T) {
	d, err := Synthetic(10, 8, 3, 5, 9)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.NumBatches(4); got != 3 {
		t.Fatalf("NumBatches(4) = %d, want 3", got)
	}
	b0, err := d.Batch(0, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(b0.Images) != 4 {
		t.Fatalf("batch 0 has %d images, want 4", len(b0.Images))
	}
	last, err := d.Batch(2, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(last.Images) != 2 {
		t.Fatalf("final batch has %d images, want 2", len(last.Images))
	}
	resized, err := d.Batch(0, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	if resized.Shape.H != 16 || resized.Images[0].Side != 16 {
		t.Fatalf("resized batch shape = %v / side %d", resized.Shape, resized.Images[0].Side)
	}
	if _, err := d.Batch(9, 4, 0); err == nil {
		t.Fatal("out-of-range batch accepted")
	}
	if _, err := d.Batch(0, 0, 0); err == nil {
		t.Fatal("zero batch size accepted")
	}
}

// Property: approxSin stays within [-1, 1] and respects sign symmetry.
func TestApproxSinProperties(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e6 {
			return true
		}
		v := approxSin(x)
		if v < -1.001 || v > 1.001 || math.IsNaN(v) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if math.Abs(approxSin(0)) > 1e-9 {
		t.Fatal("approxSin(0) != 0")
	}
	if math.Abs(approxSin(math.Pi/2)-1) > 0.01 {
		t.Fatalf("approxSin(pi/2) = %v, want ~1", approxSin(math.Pi/2))
	}
}

// NumBatches returns the number of batches of the given size.
func (d *Dataset) NumBatches(batchSize int) int {
	if batchSize <= 0 {
		return 0
	}
	return (d.size + batchSize - 1) / batchSize
}
