package gbdt

import (
	"errors"
	"fmt"
	"math"
)

// MinMaxScaler rescales each feature to [0, 1] over the fitting set, as the
// paper applies before Mgap classification "to prevent training bias".
// Constant features map to 0.
type MinMaxScaler struct {
	Min, Max []float64
}

// FitScaler computes per-feature minima and maxima over x.
func FitScaler(x [][]float64) (*MinMaxScaler, error) {
	if len(x) == 0 || len(x[0]) == 0 {
		return nil, errors.New("gbdt: cannot fit scaler on empty data")
	}
	dim := len(x[0])
	s := &MinMaxScaler{
		Min: make([]float64, dim),
		Max: make([]float64, dim),
	}
	copy(s.Min, x[0])
	copy(s.Max, x[0])
	for _, row := range x[1:] {
		if len(row) != dim {
			return nil, fmt.Errorf("gbdt: inconsistent feature dim %d, want %d", len(row), dim)
		}
		for j, v := range row {
			if v < s.Min[j] {
				s.Min[j] = v
			}
			if v > s.Max[j] {
				s.Max[j] = v
			}
		}
	}
	return s, nil
}

// TransformInPlace scales x in place by the fitted range; values beyond it
// are clamped to [0, 1]. Callers build feature rows in bulk and don't need
// the raw vector afterwards.
func (s *MinMaxScaler) TransformInPlace(x []float64) {
	for j, v := range x {
		span := s.Max[j] - s.Min[j]
		if span <= 0 {
			x[j] = 0
			continue
		}
		u := (v - s.Min[j]) / span
		switch {
		case math.IsNaN(u), u < 0:
			u = 0
		case u > 1:
			u = 1
		}
		x[j] = u
	}
}
