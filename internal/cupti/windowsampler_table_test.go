package cupti

import (
	"math"
	"testing"

	"leakydnn/internal/gpu"
)

// Table-driven coverage of WindowSampler's windowing semantics: proportional
// splitting of slices spanning several windows, starved-window emission at
// Finish, boundary alignment, and counter conservation.
func TestWindowSamplerWindowing(t *testing.T) {
	const period = 100
	type rec struct {
		start, end gpu.Nanos
		fbRead     float64
	}
	cases := []struct {
		name     string
		recs     []rec
		finishAt gpu.Nanos
		// want is the expected fb-read total (both subpartitions) per window.
		want []float64
	}{
		{
			// A 300ns slice across four windows: 50/300, 100/300, 100/300 and
			// 50/300 of its counters land in each.
			name:     "slice spanning four windows splits proportionally",
			recs:     []rec{{50, 350, 1200}},
			finishAt: 400,
			want:     []float64{200, 400, 400, 200},
		},
		{
			// After the only slice ends at 80ns, Finish(500) must still emit
			// the four whole windows where the context was starved.
			name:     "finish emits trailing starved windows",
			recs:     []rec{{0, 80, 600}},
			finishAt: 500,
			want:     []float64{600, 0, 0, 0, 0},
		},
		{
			name:     "boundary-aligned slices stay whole",
			recs:     []rec{{0, 100, 100}, {100, 200, 300}},
			finishAt: 200,
			want:     []float64{100, 300},
		},
		{
			// Two short slices share window 0; a later 300ns slice spreads
			// over windows 1-4.
			name:     "interleaved slices accumulate within windows",
			recs:     []rec{{10, 30, 80}, {40, 90, 120}, {150, 450, 900}},
			finishAt: 500,
			want:     []float64{200, 150, 300, 300, 150},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, err := NewWindowSampler(1, period, nil)
			if err != nil {
				t.Fatal(err)
			}
			var fed float64
			for _, r := range tc.recs {
				w.Observe(sliceRec(1, r.start, r.end, r.fbRead))
				fed += r.fbRead
			}
			samples := w.Finish(tc.finishAt)
			if len(samples) != len(tc.want) {
				t.Fatalf("got %d windows, want %d", len(samples), len(tc.want))
			}
			var emitted float64
			for i, s := range samples {
				wantStart := gpu.Nanos(i) * period
				if s.Start != wantStart || s.End != wantStart+period {
					t.Errorf("window %d spans [%d,%d), want [%d,%d)",
						i, s.Start, s.End, wantStart, wantStart+period)
				}
				got := s.Values[FBSubp0ReadSectors] + s.Values[FBSubp1ReadSectors]
				if math.Abs(got-tc.want[i]) > 1e-9 {
					t.Errorf("window %d read sectors = %v, want %v", i, got, tc.want[i])
				}
				emitted += got
			}
			// Proportional splitting must conserve every counter: nothing
			// duplicated at boundaries, nothing dropped.
			if math.Abs(emitted-fed) > 1e-9 {
				t.Errorf("emitted %v sectors, fed %v (conservation violated)", emitted, fed)
			}
		})
	}
}
