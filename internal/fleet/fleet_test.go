package fleet

import (
	"context"
	"strings"
	"testing"

	"leakydnn/internal/chaos"
	"leakydnn/internal/eval"
	"leakydnn/internal/par"
	"leakydnn/internal/trace"
)

// goldenDev0TraceSHA256 pins device 0's collect-only trace at tiny scale
// under the default classes/mixes with an unlimited budget. Any change to
// the engine, spy, seed derivation or planner that moves these bytes is a
// determinism break (or a deliberate re-baseline, which must say so).
const goldenDev0TraceSHA256 = "9158e0aa3b05868686153b93cbbe06bce5b1415e95540d998f696205842c07bd"

func tinyFleet(devices, workers int) Config {
	base := eval.Tiny()
	base.Workers = workers
	return Config{Base: base, Devices: devices, CollectOnly: true}
}

// Plan must be prefix-stable: growing the fleet never changes an existing
// device's spec.
func TestPlanPrefixStable(t *testing.T) {
	small, err := Plan(tinyFleet(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	big, err := Plan(tinyFleet(9, 1))
	if err != nil {
		t.Fatal(err)
	}
	for i := range small {
		a, b := small[i], big[i]
		if a.Name != b.Name || a.Class != b.Class || a.Mix != b.Mix ||
			a.Tenants != b.Tenants || a.Slowdown != b.Slowdown ||
			a.Scale.Seed != b.Scale.Seed || a.Victim.Name != b.Victim.Name {
			t.Errorf("device %d spec changed with fleet size:\n 4-dev %+v\n 9-dev %+v", i, a, b)
		}
	}
}

// The shared budget splits greedily in index order; a device's allocation
// depends only on its index.
func TestPlanBudgetAllocation(t *testing.T) {
	cfg := tinyFleet(4, 1)
	cfg.SpyBudget = 12
	specs, err := Plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{8, 4, 0, 0}
	for i, w := range want {
		if specs[i].Slowdown != w {
			t.Errorf("device %d allocation = %d, want %d", i, specs[i].Slowdown, w)
		}
	}
	cfg.SpyBudget = 0
	specs, err = Plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if specs[i].Slowdown != -1 {
			t.Errorf("unlimited budget: device %d allocation = %d, want -1", i, specs[i].Slowdown)
		}
	}
}

// Adjacent fleet devices must share no derived seed (the regression the
// additive offsets failed).
func TestPlanSeedsDistinct(t *testing.T) {
	specs, err := Plan(tinyFleet(64, 1))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int64]int)
	for i, s := range specs {
		if prev, dup := seen[s.Scale.Seed]; dup {
			t.Fatalf("devices %d and %d share seed %d", prev, i, s.Scale.Seed)
		}
		seen[s.Scale.Seed] = i
	}
}

// The core contract: per-device traces are byte-identical regardless of
// fleet size and worker count, pinned by a golden hash.
func TestFleetDeviceCountAndWorkerInvariance(t *testing.T) {
	run := func(devices, workers int) *Result {
		res, err := Run(tinyFleet(devices, workers))
		if err != nil {
			t.Fatalf("devices=%d workers=%d: %v", devices, workers, err)
		}
		return res
	}
	small := run(2, 1)
	big := run(5, 4)
	if got := small.Devices[0].TraceHash; got != goldenDev0TraceSHA256 {
		t.Errorf("device 0 trace drifted from golden:\n got %s\nwant %s", got, goldenDev0TraceSHA256)
	}
	for i := range small.Devices {
		a, b := small.Devices[i], big.Devices[i]
		if a.TraceHash != b.TraceHash {
			t.Errorf("device %d trace changed with fleet size/workers:\n 2-dev/1w %s\n 5-dev/4w %s",
				i, a.TraceHash, b.TraceHash)
		}
		if a.SchedSlices == 0 {
			t.Errorf("device %d simulated no scheduler grants", i)
		}
	}
	// Distinct devices must not replay each other's runs.
	hashes := make(map[string]int)
	for i, d := range big.Devices {
		if prev, dup := hashes[d.TraceHash]; dup {
			t.Errorf("devices %d and %d produced identical traces", prev, i)
		}
		hashes[d.TraceHash] = i
	}
}

// Cross-device isolation: a device added with a violently faulty scheduler
// (driver resets detach the spy context mid-run, tenants churn) must leave
// every other device's bytes untouched.
func TestFleetChaosDeviceIsolation(t *testing.T) {
	clean, err := Run(tinyFleet(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyFleet(3, 2)
	specs, err := Plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	specs[2].Scale.Chaos = chaos.Plan{Sched: chaos.SchedAt(1.0)}
	perturbed, err := RunSpecs(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range clean.Devices {
		if clean.Devices[i].TraceHash != perturbed.Devices[i].TraceHash {
			t.Errorf("device %d perturbed by a faulty neighbour:\n clean %s\n dirty %s",
				i, clean.Devices[i].TraceHash, perturbed.Devices[i].TraceHash)
		}
	}
}

// A probe-only allocation (budget exhausted) must still yield samples, and a
// capped-class device must reject the full batch wholesale, not partially.
func TestFleetAllocationBehaviour(t *testing.T) {
	cfg := tinyFleet(3, 2)
	cfg.SpyBudget = 12 // dev0 full, dev1 half, dev2 probe-only
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range res.Devices {
		if len(d.TraceHash) == 0 || d.SamplesPerIter <= 0 {
			t.Errorf("device %d (alloc %d) collected no samples", i, d.Spec.Slowdown)
		}
	}
	// Find a capped-class device with a full allocation: its batch must be
	// rejected atomically (8 rejects, not a partial arm).
	cfg = tinyFleet(12, 2)
	res, err = Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sawCapped := false
	for _, d := range res.Devices {
		if d.Spec.Class != "capped" {
			continue
		}
		sawCapped = true
		if got := d.Health.SpyChannelsRejected; got != fullSlowdown {
			t.Errorf("%s: rejected %d slow-down channels, want the whole batch (%d)",
				d.Spec.Name, got, fullSlowdown)
		}
	}
	if !sawCapped {
		t.Fatal("default 12-device fleet contains no capped-class device")
	}
}

// The full (non-CollectOnly) path must survive a small fleet end to end and
// report per-device accuracies and extract hashes.
func TestFleetFullPipelineSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("trains per-device model sets")
	}
	cfg := tinyFleet(2, 2)
	cfg.CollectOnly = false
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range res.Devices {
		if d.ExtractErr != "" {
			t.Errorf("device %d extraction failed: %s", i, d.ExtractErr)
			continue
		}
		if d.ExtractHash == "" {
			t.Errorf("device %d has no extract hash", i)
		}
		if d.LetterAcc <= 0 {
			t.Errorf("device %d letter accuracy %.3f, want > 0", i, d.LetterAcc)
		}
	}
}

// oneGroupFleet is an extraction fleet for oneGroupPlan.
func oneGroupFleet(devices, workers int) Config {
	cfg := tinyFleet(devices, workers)
	cfg.CollectOnly = false
	return cfg
}

// oneGroupPlan plans cfg so that every device lands in a single model group
// (one class, one mix), and class-sharing dedups N trainings to 1. The
// default classes and mixes would give every small-fleet device its own
// group.
func oneGroupPlan(t testing.TB, cfg Config) []DeviceSpec {
	t.Helper()
	specs, err := planWith(cfg, DefaultClasses()[:1], DefaultMixes()[:1])
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

// runOneGroup runs cfg as oneGroupPlan plans it.
func runOneGroup(t testing.TB, cfg Config) *Result {
	t.Helper()
	res, err := RunSpecs(cfg, oneGroupPlan(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// Class-sharing must train one model set per group and report the provenance:
// device 0 trains, everyone else references device 0's set.
func TestFleetSharedModelDedup(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model set")
	}
	res := runOneGroup(t, oneGroupFleet(3, 2))
	if res.ModelSetsTrained != 1 || res.ModelSetsReferenced != 2 {
		t.Errorf("model sets trained/referenced = %d/%d, want 1/2",
			res.ModelSetsTrained, res.ModelSetsReferenced)
	}
	for i, d := range res.Devices {
		if d.ModelRep != 0 {
			t.Errorf("device %d ModelRep = %d, want 0 (the group representative)", i, d.ModelRep)
		}
		if d.ExtractErr != "" {
			t.Errorf("device %d extraction failed: %s", i, d.ExtractErr)
		}
		if d.ExtractHash == "" || d.Fingerprint == "" {
			t.Errorf("device %d missing extraction artifacts", i)
		}
	}
	rollup := RenderRollup(res.Devices)
	if !strings.Contains(rollup, "model sets: 1 trained / 2 shared") {
		t.Errorf("rollup does not report model-set reuse:\n%s", rollup)
	}
	if !strings.Contains(rollup, "models<-dev000") {
		t.Errorf("rollup does not mark referencing devices:\n%s", rollup)
	}
}

// A group representative's extraction is a pure function of its own spec:
// collecting its trace and building a set from its scale with
// eval.Scale.TrainModelSet directly, outside the fleet, must reproduce the
// shared run's bytes.
func TestFleetSharedMatchesPerDeviceOnRepresentative(t *testing.T) {
	if testing.Short() {
		t.Skip("trains model sets")
	}
	cfg := oneGroupFleet(2, 1)
	shared := runOneGroup(t, cfg)
	specs := oneGroupPlan(t, cfg)
	models, err := specs[0].Scale.TrainModelSet(context.Background(), par.NewPool(1))
	if err != nil {
		t.Fatal(err)
	}
	rep := specs[0]
	sc := rep.Scale
	tr, err := trace.Collect(rep.Victim, sc.RunConfig(sc.StreamSeed(eval.StreamTested, 0), rep.Slowdown != 0))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := models.ExtractTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	s0 := shared.Devices[0]
	if s0.TraceHash != hashTrace(tr) || s0.ExtractHash != hashRecovery(rec) || s0.Fingerprint != rec.Fingerprint() {
		t.Errorf("representative device diverged from a set trained on its own spec:\n shared %s %s\n direct %s %s",
			s0.ExtractHash, s0.Fingerprint, hashRecovery(rec), rec.Fingerprint())
	}
}

// Shared-mode extractions must be invariant to worker count and fleet size:
// the representative is elected from the planned prefix, so growing the fleet
// or changing concurrency never moves any device's bytes.
func TestFleetSharedWorkerAndSizeInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("trains model sets")
	}
	small := runOneGroup(t, oneGroupFleet(2, 1))
	big := runOneGroup(t, oneGroupFleet(3, 4))
	for i := range small.Devices {
		a, b := small.Devices[i], big.Devices[i]
		if a.TraceHash != b.TraceHash || a.ExtractHash != b.ExtractHash || a.Fingerprint != b.Fingerprint {
			t.Errorf("device %d changed with fleet size/workers under sharing:\n 2-dev/1w %s %s\n 3-dev/4w %s %s",
				i, a.ExtractHash, a.Fingerprint, b.ExtractHash, b.Fingerprint)
		}
	}
}

// The journal key must record the model source for extraction campaigns, so
// a record made under one group representative never replays into a
// campaign whose group elected another.
func TestDeviceKeyModelSource(t *testing.T) {
	cfg := oneGroupFleet(3, 1)
	specs := oneGroupPlan(t, cfg)
	share := newModelShare(specs)
	// Without device 0 the group elects device 1 as its representative.
	moved := newModelShare(specs[1:])
	if deviceKeys(cfg, specs[2:], share)[0] == deviceKeys(cfg, specs[2:], moved)[0] {
		t.Error("extraction key ignores which representative trained the model set")
	}
	collectCfg := cfg
	collectCfg.CollectOnly = true
	if deviceKeys(collectCfg, specs, nil)[1] == deviceKeys(cfg, specs, share)[1] {
		t.Error("collect-only and extraction keys collide")
	}
	// Per-attempt fault splicing must not move a spec out of its model group:
	// a crashing attempt still resolves to the planned group's shared cell.
	spliced := specs[1]
	spliced.Scale.Chaos.Device = chaos.DeviceFaults{CrashFrac: 0.5}
	if share.entryFor(spliced) != share.entryFor(specs[1]) {
		t.Error("device-fault splicing moved the spec out of its model group")
	}
}

// AccuracyGrid's prefix aggregation must agree with running the prefix.
func TestAccuracyGridPrefixConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("trains per-device model sets")
	}
	cfg := tinyFleet(3, 2)
	cfg.CollectOnly = false
	g, err := AccuracyGrid(cfg, []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Devices = 2
	direct, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range direct.Devices {
		if direct.Devices[i].TraceHash != g.Results[i].TraceHash {
			t.Errorf("grid prefix device %d differs from a direct 2-device run", i)
		}
		if direct.Devices[i].ExtractHash != g.Results[i].ExtractHash {
			t.Errorf("grid prefix device %d extraction differs from a direct 2-device run", i)
		}
	}
	if g.Render() == "" {
		t.Error("empty grid render")
	}
}

// BenchmarkFleetFullShared runs the full extraction fleet — collection,
// training and extraction for eight devices spanning two classes and one mix,
// so the fleet holds exactly two (class, mix) model groups: it trains two
// model sets and references them from the other six devices.
func BenchmarkFleetFullShared(b *testing.B) {
	cfg := Config{Base: eval.Tiny(), Devices: 8}
	specs, err := planWith(cfg, DefaultClasses()[:2], DefaultMixes()[:1])
	if err != nil {
		b.Fatal(err)
	}
	var trained, referenced int
	for i := 0; i < b.N; i++ {
		res, err := RunSpecs(cfg, specs)
		if err != nil {
			b.Fatal(err)
		}
		for _, d := range res.Devices {
			if d.ExtractErr != "" {
				b.Fatalf("%s: extraction failed: %s", d.Spec.Name, d.ExtractErr)
			}
		}
		trained, referenced = res.ModelSetsTrained, res.ModelSetsReferenced
	}
	b.ReportMetric(float64(trained), "modelsets-trained")
	b.ReportMetric(float64(referenced), "modelsets-shared")
}
