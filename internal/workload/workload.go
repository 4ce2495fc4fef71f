// Package workload generates the synthetic training inputs that stand in
// for the paper's ImageNet feed (§V-A: 64x64 source images resized to
// 224x224, 10,000 images, batched). The side channel never observes pixel
// values — only tensor shapes and batch sizes reach the GPU cost model — so
// a deterministic synthetic dataset exercises exactly the same code paths as
// the real corpus while keeping the repository self-contained.
package workload

import (
	"fmt"
	"math/rand"

	"leakydnn/internal/dnn"
)

// Dataset is a deterministic synthetic image dataset.
type Dataset struct {
	size     int
	side     int
	channels int
	classes  int
	seed     int64
}

// Synthetic builds a dataset of n images of side x side x channels pixels
// across the given number of classes. Images are generated lazily and
// deterministically from the seed.
func Synthetic(n, side, channels, classes int, seed int64) (*Dataset, error) {
	if n <= 0 || side <= 0 || channels <= 0 || classes <= 0 {
		return nil, fmt.Errorf("workload: invalid dataset %dx(%d,%d) classes=%d", n, side, channels, classes)
	}
	return &Dataset{size: n, side: side, channels: channels, classes: classes, seed: seed}, nil
}

// Image is one synthetic example: HWC pixel data in [0,1) and a label.
type Image struct {
	Pixels []float32 // H*W*C, row-major
	Side   int
	C      int
	Label  int
}

// Example deterministically materializes image i. The pixel field is a
// smooth random field (per-image low-frequency pattern plus noise), which
// keeps resized outputs well-behaved.
func (d *Dataset) Example(i int) (Image, error) {
	if i < 0 || i >= d.size {
		return Image{}, fmt.Errorf("workload: example %d out of range [0,%d)", i, d.size)
	}
	rng := rand.New(rand.NewSource(d.seed ^ int64(i)*0x9E3779B9))
	img := Image{
		Pixels: make([]float32, d.side*d.side*d.channels),
		Side:   d.side,
		C:      d.channels,
		Label:  rng.Intn(d.classes),
	}
	// Low-frequency base pattern per channel + uniform noise.
	fx := rng.Float64()*0.2 + 0.05
	fy := rng.Float64()*0.2 + 0.05
	for y := 0; y < d.side; y++ {
		for x := 0; x < d.side; x++ {
			base := 0.5 + 0.4*approxSin(fx*float64(x))*approxSin(fy*float64(y))
			for c := 0; c < d.channels; c++ {
				v := base + 0.1*(rng.Float64()-0.5)
				if v < 0 {
					v = 0
				} else if v >= 1 {
					v = 0.999
				}
				img.Pixels[(y*d.side+x)*d.channels+c] = float32(v)
			}
		}
	}
	return img, nil
}

// Resize bilinearly resamples the image to side x side — the paper's
// 64→224 pre-processing step ("a standard technique used by model developers
// to smooth the gradient").
func (img Image) Resize(side int) (Image, error) {
	if side <= 0 {
		return Image{}, fmt.Errorf("workload: invalid resize target %d", side)
	}
	out := Image{
		Pixels: make([]float32, side*side*img.C),
		Side:   side,
		C:      img.C,
		Label:  img.Label,
	}
	scale := float64(img.Side-1) / float64(max(side-1, 1))
	for y := 0; y < side; y++ {
		sy := float64(y) * scale
		y0 := int(sy)
		y1 := y0 + 1
		if y1 >= img.Side {
			y1 = img.Side - 1
		}
		wy := sy - float64(y0)
		for x := 0; x < side; x++ {
			sx := float64(x) * scale
			x0 := int(sx)
			x1 := x0 + 1
			if x1 >= img.Side {
				x1 = img.Side - 1
			}
			wx := sx - float64(x0)
			for c := 0; c < img.C; c++ {
				p00 := float64(img.at(x0, y0, c))
				p01 := float64(img.at(x0, y1, c))
				p10 := float64(img.at(x1, y0, c))
				p11 := float64(img.at(x1, y1, c))
				top := p00*(1-wx) + p10*wx
				bot := p01*(1-wx) + p11*wx
				out.Pixels[(y*side+x)*img.C+c] = float32(top*(1-wy) + bot*wy)
			}
		}
	}
	return out, nil
}

func (img Image) at(x, y, c int) float32 {
	return img.Pixels[(y*img.Side+x)*img.C+c]
}

// Batch is one training mini-batch.
type Batch struct {
	Images []Image
	Shape  dnn.Shape
}

// Batches returns an iterator-style accessor: batch b of the given size,
// images resized to targetSide (0 keeps the native size). The final partial
// batch is returned as-is.
func (d *Dataset) Batch(b, batchSize, targetSide int) (Batch, error) {
	if batchSize <= 0 {
		return Batch{}, fmt.Errorf("workload: invalid batch size %d", batchSize)
	}
	start := b * batchSize
	if start < 0 || start >= d.size {
		return Batch{}, fmt.Errorf("workload: batch %d out of range", b)
	}
	end := start + batchSize
	if end > d.size {
		end = d.size
	}
	side := d.side
	if targetSide > 0 {
		side = targetSide
	}
	out := Batch{Shape: dnn.Shape{H: side, W: side, C: d.channels}}
	for i := start; i < end; i++ {
		img, err := d.Example(i)
		if err != nil {
			return Batch{}, err
		}
		if targetSide > 0 && targetSide != d.side {
			img, err = img.Resize(targetSide)
			if err != nil {
				return Batch{}, err
			}
		}
		out.Images = append(out.Images, img)
	}
	return out, nil
}

// approxSin is a cheap odd-polynomial sine approximation on the wrapped
// argument; exact trigonometric fidelity is irrelevant for synthetic pixels.
func approxSin(x float64) float64 {
	const pi = 3.141592653589793
	x -= float64(int(x/(2*pi))) * 2 * pi
	if x > pi {
		x -= 2 * pi
	}
	sign := 1.0
	if x < 0 {
		sign = -1
		x = -x
	}
	// Bhaskara I's approximation on [0, pi].
	return sign * 16 * x * (pi - x) / (5*pi*pi - 4*x*(pi-x))
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
