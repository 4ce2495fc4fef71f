package mat

import (
	"fmt"
	"math"
)

// SoftmaxInto computes the softmax of logits into dst without allocating,
// numerically stable (shifted by the max logit). dst and logits may alias.
func SoftmaxInto(dst, logits []float64) {
	checkVecLen(dst, logits, "softmaxinto")
	if len(logits) == 0 {
		return
	}
	max := logits[0]
	for _, v := range logits[1:] {
		if v > max {
			max = v
		}
	}
	for i, v := range logits {
		dst[i] = v - max
	}
	expInto(dst, dst)
	var sum float64
	for _, e := range dst {
		sum += e
	}
	for i := range dst {
		dst[i] /= sum
	}
}

// ArgMax returns the index of the largest element of v (-1 for empty v).
func ArgMax(v []float64) int {
	if len(v) == 0 {
		return -1
	}
	best := 0
	for i, x := range v[1:] {
		if x > v[best] {
			best = i + 1
		}
	}
	return best
}

// Mean returns the arithmetic mean of v (0 for empty v).
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// Std returns the population standard deviation of v (0 for len(v) < 2).
func Std(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	mean := Mean(v)
	var ss float64
	for _, x := range v {
		d := x - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(v)))
}

func checkVecLen(a, b []float64, op string) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: %s length mismatch %d vs %d", op, len(a), len(b)))
	}
}
