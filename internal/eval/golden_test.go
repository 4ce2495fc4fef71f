package eval

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"leakydnn/internal/chaos"
)

// goldenTestedTracesSHA256 pins the tiny-scale tested traces byte-for-byte.
// A zero chaos.Plan must keep the measurement path identical to this
// baseline: if this test fails, something (fault-injection plumbing, engine
// refactors, scheduler changes) has perturbed clean runs, which breaks every
// previously published table. Re-baselined once when per-collection seeds
// moved from additive offsets to keyed splitmix64 derivation (StreamSeed)
// and Tiny's base seed was re-tuned for the new scheme — that change
// renumbers every stream by design; within the derived-seed scheme the hash
// is load-bearing and must not drift.
const goldenTestedTracesSHA256 = "c64d010a2c91dfdc76fa9e5c4e99728816d19338a813722198355ac4e965bfe2"

func hashTraces(t *testing.T, sc Scale) string {
	t.Helper()
	h := sha256.New()
	traces, err := sc.CollectTraces(context.Background(), nil, sc.Tested, StreamTested)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range traces {
		binary.Write(h, binary.LittleEndian, int64(len(tr.Samples)))
		for _, s := range tr.Samples {
			binary.Write(h, binary.LittleEndian, int64(s.Start))
			binary.Write(h, binary.LittleEndian, int64(s.End))
			for _, v := range s.Values {
				binary.Write(h, binary.LittleEndian, v)
			}
		}
		binary.Write(h, binary.LittleEndian, int64(tr.VictimWall))
		binary.Write(h, binary.LittleEndian, int64(tr.SpyProbeLaunches))
		binary.Write(h, binary.LittleEndian, int64(tr.SpyChannelsRejected))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestCleanCollectionMatchesGoldenHash(t *testing.T) {
	if got := hashTraces(t, Tiny()); got != goldenTestedTracesSHA256 {
		t.Fatalf("clean tiny-scale collection drifted from the pre-chaos golden hash:\n got %s\nwant %s",
			got, goldenTestedTracesSHA256)
	}
}

// The lazy-decay fast path in the engine's residency model can only diverge
// from the historical eager sweep while L2 capacity pressure is actively
// rescaling, which never happens at the tiny scale (spy and victim working
// sets shrink with the time scale, L2 does not). Both paths must therefore
// land on the same bytes — and, via TestCleanCollectionMatchesGoldenHash, on
// the golden hash — so the fast default changes extraction accuracy by
// exactly nothing here.
func TestExactResidencyTotalMatchesFastPath(t *testing.T) {
	fast := hashTraces(t, Tiny())
	sc := Tiny()
	sc.Device.ExactResidencyTotal = true
	if exact := hashTraces(t, sc); exact != fast {
		t.Fatalf("exact-summation and fast residency paths diverged at tiny scale:\nexact %s\nfast  %s", exact, fast)
	}
}

// A non-zero chaos plan must actually change the collected traces — otherwise
// the golden test above proves nothing about the zero-plan path.
func TestChaoticCollectionDiffersFromGolden(t *testing.T) {
	sc := Tiny()
	sc.Chaos = chaos.At(0.25)
	if got := hashTraces(t, sc); got == goldenTestedTracesSHA256 {
		t.Fatal("chaos plan at intensity 0.25 left the traces byte-identical to clean runs")
	}
}

// The zero SchedPlan must leave collections byte-identical: a plan whose
// measurement and scheduler sides are both explicitly zeroed takes the
// no-injector path (no sched injector, no per-context RNG isolation) and
// lands exactly on the pre-chaos golden hash.
func TestZeroSchedPlanCollectionMatchesGoldenHash(t *testing.T) {
	sc := Tiny()
	sc.Chaos = chaos.Plan{Sched: chaos.SchedAt(0)}
	if got := hashTraces(t, sc); got != goldenTestedTracesSHA256 {
		t.Fatalf("zero SchedPlan perturbed the collection:\n got %s\nwant %s", got, goldenTestedTracesSHA256)
	}
}

// And a non-zero SchedPlan alone (measurement side clean) must change the
// traces, or the zero-plan guarantee above is vacuous.
func TestSchedChaoticCollectionDiffersFromGolden(t *testing.T) {
	sc := Tiny()
	sc.Chaos = chaos.Plan{Sched: chaos.SchedAt(0.5)}
	if got := hashTraces(t, sc); got == goldenTestedTracesSHA256 {
		t.Fatal("scheduler-fault plan at intensity 0.5 left the traces byte-identical to clean runs")
	}
}

// goldenSlowdownRender pins the rendered §V-F impact and §IV sweep tables
// at tiny scale, for the default seed and for seed 7, on paperbench's sweep
// grid. Every probe, slow-down and sweep run times the victim, so this keeps
// the victim-timing loop's engine wiring fixed.
var goldenSlowdownRender = map[int64]string{
	0: `§V-F performance impact of the attack
  victim iteration alone:        5821
  with 1 spy kernel:             23819 (4.09x)
  with 8-kernel slow-down:       253914 (43.62x)
  spy self slow-down:            1.05x
§IV slow-down parameter sweep (victim slow-down ratio)
  kernels=1   blocks=8   threads=256   -> 5.70x
  kernels=1   blocks=32  threads=256   -> 11.34x
  kernels=2   blocks=8   threads=256   -> 8.21x
  kernels=2   blocks=32  threads=256   -> 19.64x
  kernels=4   blocks=8   threads=256   -> 13.25x
  kernels=4   blocks=32  threads=256   -> 35.93x
  kernels=8   blocks=8   threads=256   -> 23.38x
  kernels=8   blocks=32  threads=256   -> 70.23x
  kernels=16  blocks=8   threads=256   -> 4.80x
  kernels=16  blocks=32  threads=256   -> 12.94x
`,
	7: `§V-F performance impact of the attack
  victim iteration alone:        5821
  with 1 spy kernel:             23900 (4.11x)
  with 8-kernel slow-down:       256803 (44.12x)
  spy self slow-down:            1.05x
§IV slow-down parameter sweep (victim slow-down ratio)
  kernels=1   blocks=8   threads=256   -> 5.72x
  kernels=1   blocks=32  threads=256   -> 11.48x
  kernels=2   blocks=8   threads=256   -> 8.23x
  kernels=2   blocks=32  threads=256   -> 19.54x
  kernels=4   blocks=8   threads=256   -> 13.25x
  kernels=4   blocks=32  threads=256   -> 35.61x
  kernels=8   blocks=8   threads=256   -> 23.38x
  kernels=8   blocks=32  threads=256   -> 69.55x
  kernels=16  blocks=8   threads=256   -> 4.81x
  kernels=16  blocks=32  threads=256   -> 12.57x
`,
}

func TestSlowdownRenderGolden(t *testing.T) {
	for seed, want := range goldenSlowdownRender {
		sc := Tiny()
		if seed != 0 {
			sc.Seed = seed
		}
		impact, err := SlowdownImpact(sc)
		if err != nil {
			t.Fatal(err)
		}
		points, err := SlowdownSweep(sc, []int{1, 2, 4, 8, 16}, []int{8, 32}, []int{256})
		if err != nil {
			t.Fatal(err)
		}
		if got := impact.Render() + RenderSweep(points); got != want {
			t.Errorf("seed %d: rendered slow-down tables drifted:\ngot:\n%swant:\n%s", seed, got, want)
		}
	}
}
