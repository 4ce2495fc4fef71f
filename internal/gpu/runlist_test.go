package gpu

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// buildRunlistWorkload assembles the fixed multi-context workload the
// pick-order golden below runs: three contexts with unequal channel counts
// under a runlist cap of 2 slots per context per pass, so the cap-skip and
// pass-reset paths both fire. Context 3 detaches mid-run to exercise the
// live-ring compaction against the pass accounting.
func buildRunlistWorkload(t *testing.T) *Engine {
	t.Helper()
	cfg := testConfig()
	cfg.RunlistSlotsPerCtx = 2
	eng, err := NewEngine(cfg, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	k := fullKernel("k", cfg.SliceQuantum/2, cfg)
	for _, w := range []struct {
		ctx ContextID
		n   int
	}{{1, 1}, {2, 4}, {3, 2}} {
		for i := 0; i < w.n; i++ {
			if !eng.AddChannel(w.ctx, &RepeatSource{Kernel: k}) {
				t.Fatalf("channel %d of ctx %d rejected", i, w.ctx)
			}
		}
	}
	return eng
}

// grantSequence runs the engine in two legs with a DetachContext between them
// and returns the context id of every scheduler grant, comma-separated.
func grantSequence(t *testing.T, eng *Engine) string {
	t.Helper()
	var seq []string
	eng.OnSlice = func(rec *SliceRecord) {
		seq = append(seq, fmt.Sprint(int(rec.Ctx)))
	}
	horizon := 40 * eng.cfg.SliceQuantum
	eng.Run(horizon)
	eng.DetachContext(3)
	eng.Run(2 * horizon)
	return strings.Join(seq, ",")
}

// TestRunlistPickOrderGolden pins the exact grant order of the runlist-capped
// scheduler on a fixed workload. The passServed accounting moved from a
// per-context map to a dense per-context array on the pick hot path; this
// golden is the proof the swap did not change a single scheduling decision.
// The expected string was captured from the map-based implementation.
func TestRunlistPickOrderGolden(t *testing.T) {
	const want = "1,2,2,3,3,1,2,2,3,3,1,1,2,2,3,3,1,1,2,2,3,3,1,1," +
		"2,2,3,3,1,1,2,2,3,3,1,1,2,2,3,3,1,1,2,2,3,3,1,1," +
		"2,2,3,3,1,1,2,2,3,3,1,1,2,2,3,3,1,1,2,2,3,3,1,1," +
		"2,2,1,1,2,2,1,1,2,2,1,1,2,2,1,1,2,2,1,1,2,2,1,1," +
		"2,2,1,1,2,2,1,1,2,2,1,1,2,2,1,1,2,2,1,1,2,2,1,1," +
		"2,2,1,1,2,2,1,1,2,2,1,1,2,2,1,1,2,2,1,1,2,2,1,1"
	got := grantSequence(t, buildRunlistWorkload(t))
	if got != want {
		t.Fatalf("runlist grant order changed:\n got  %s\n want %s", got, want)
	}
}

// TestRunlistPickOrderWorkerInvariant re-runs the same workload on a freshly
// built engine and demands the identical grant string: the pick path must be a
// pure function of (config, seed, workload), with no dependence on map
// iteration order or any other per-process state.
func TestRunlistPickOrderWorkerInvariant(t *testing.T) {
	a := grantSequence(t, buildRunlistWorkload(t))
	b := grantSequence(t, buildRunlistWorkload(t))
	if a != b {
		t.Fatalf("grant order not reproducible:\n first  %s\n second %s", a, b)
	}
}
