// Performance regression gates: allocation ceilings on the collection and
// serve hot paths and a wall-clock scaling gate on the parallel fan-out. These
// pin the wins DESIGN.md §11 describes — the process-wide collection arenas,
// the compiled-op cache and the IterOp tag slab — the binary trace wire format
// on both ends of an upload, the binary fleet journal records, and the
// in-place upload decode and copy-free prediction on the extraction path, so a
// future change that silently reintroduces per-kernel boxing, per-run engine
// churn or per-chunk staging fails CI instead of fading into GC noise.
package leakydnn

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"leakydnn/internal/attack"
	"leakydnn/internal/eval"
	"leakydnn/internal/fleet"
	"leakydnn/internal/journal"
	"leakydnn/internal/trace"
)

// maxCollectAllocs bounds one arena-backed trace collection. Measured ~150
// after the tag-slab and arena work (seed-era collections ran thousands);
// the ceiling leaves slack for toolchain drift while still catching any
// per-sample or per-kernel allocation sneaking back in.
const maxCollectAllocs = 500

// maxFleetAllocs bounds one full 8-device collect-only fleet run, arenas
// included. Measured ~930 (the seed ran 81k); the ISSUE-10 acceptance floor
// is 10k, and the ceiling sits well under it with headroom over the
// measurement.
const maxFleetAllocs = 5000

// maxCollectBytes and maxFleetBytes bound the same two runs by bytes, which
// the object counts cannot see: a sampler buffer regrowing by doubling, or a
// dead trace's buffers not going back to the arenas, is a handful of objects
// but most of the bytes. The 8-device fleet run measured ~81 KB once the
// arenas became process-wide, compiled ops were cached and slice records
// went by pointer (1,483 KB before, 3,367 KB before fleet devices recycled
// their traces); its ceiling sits about 25% over. A lone collection keeps
// its trace, so its fresh sampler buffer is sized to the process's sample
// high-water mark: it measured ~182 KB, or ~230 KB once a fleet campaign in
// the same process has raised the mark, and the ceiling stays at 240 KB,
// over the larger figure.
//
// maxCampaignBytes bounds a warm 96-device collect-only campaign, the second
// in the process. It measured ~975 KB (~4,730 KB while every campaign
// started on cold, campaign-scoped arenas); the ceiling sits about 25% over.
//
// maxJournaledCampaignBytes bounds the same campaign journaled, plus its
// resume from the journal. It measured ~1,358 KB once device records became
// binary (~4,446 KB while each record built its own gob encoder and
// decoder); the ceiling sits about 25% over.
const (
	maxCollectBytes           = 240 << 10
	maxFleetBytes             = 102 << 10
	maxCampaignBytes          = 1216 << 10
	maxJournaledCampaignBytes = 1700 << 10
)

// maxReadTraceAllocs and maxReadTraceBytes bound decoding one tiny tested
// trace from its wire bytes, the first thing mosconsd does with an upload.
// Measured 34 objects and ~93 KB per trace with wire format version 3,
// whose header is one wire walk (version 2's gob header cost ~640 objects
// and ~122 KB, and version 1's self-contained gob stream per chunk ~3,900
// objects and ~333 KB). The count ceiling covers toolchain drift but not
// one extra object per sample (~685 per trace) or a header decoded by
// reflection again. The byte ceiling (~35% over) is what catches an
// unpooled staging buffer or a second copy of the samples coming back.
const (
	maxReadTraceAllocs = 48
	maxReadTraceBytes  = 126 << 10
)

// maxWriteTraceAllocs and maxWriteTraceBytes bound encoding one tiny tested
// trace. Measured 1 object and ~0.1 KB per trace once frames are assembled
// in a pooled buffer and the header is walked into it (a gob header encoder
// cost ~38 objects and ~7 KB, and version 1's per-chunk gob encoders and
// bufio.Writer ~917 objects and ~572 KB); the byte ceiling leaves less room
// than one fresh write buffer.
const (
	maxWriteTraceAllocs = 4
	maxWriteTraceBytes  = 10 << 10
)

// maxExtractAllocs bounds one ExtractTrace over a tiny tested trace with the
// trained tiny model set. Measured ~225 once Predict took its argmax from the
// pooled step caches (the per-timestep probability clones cost ~1,460); the
// ceiling leaves the usual slack while still catching any per-timestep
// allocation sneaking back in.
const maxExtractAllocs = 600

// maxDecodeRecycledBytes bounds decoding one tiny tested upload whose
// sample and event buffers come back through trace.Recycle, as mosconsd
// hands them back after each response. It measured ~12.6 KB per trace with
// the header one wire walk (~42 KB with a gob header, ~123 KB while every
// decode allocated its own buffers); the ceiling sits about 25% over, so a
// decode that stopped drawing on the recycled sample buffers fails it.
//
// maxExtractBytes bounds one warm ExtractTrace over a tiny tested trace,
// the feature and vote matrices reused from the extraction scratch. It
// measured ~25 KB per trace (~158 KB while each extraction built its own
// matrices); the ceiling sits about 25% over.
const (
	maxDecodeRecycledBytes = 16 << 10
	maxExtractBytes        = 32 << 10
)

// maxTrainModelsBytes bounds one warm attack.TrainModels over the tiny
// profiled traces: Mgap's trees grow by partitioning their row indices in
// place, and every LSTM head borrows its training working set — step
// buffers, masters, gradients, Adam moments — from the process-wide
// scratch list. It measured ~2,865 KB (~7,640 KB while each tree node
// appended fresh child index slices and each Train call built its own
// working set); the ceiling sits about 25% over.
const maxTrainModelsBytes = 3584 << 10

var (
	tinyBenchOnce sync.Once
	tinyBench     *eval.Workbench
	tinyBenchErr  error
)

// tinyWorkbench trains the tiny MoSConS model set once for the serve-path
// allocation gates.
func tinyWorkbench(t *testing.T) *eval.Workbench {
	t.Helper()
	tinyBenchOnce.Do(func() { tinyBench, tinyBenchErr = eval.NewWorkbench(eval.Tiny()) })
	if tinyBenchErr != nil {
		t.Fatal(tinyBenchErr)
	}
	return tinyBench
}

// perTrace runs fn once per tested trace under AllocsPerRun and reports the
// steady-state mean allocation count and bytes for a single trace. The byte
// count is taken the way AllocsPerRun takes the object count: warmed, on one
// P, averaged over the runs.
func perTrace(n int, fn func(i int)) (allocs, allocBytes float64) {
	const runs = 3
	all := func() {
		for i := 0; i < n; i++ {
			fn(i)
		}
	}
	allocs = testing.AllocsPerRun(runs, all) / float64(n)
	return allocs, bytesPerRun(runs, all) / float64(n)
}

// bytesPerRun reports the mean bytes allocated by one call of fn, from the
// runtime.MemStats.TotalAlloc delta over runs calls on one P. Call it after a
// warm-up run, as AllocsPerRun does.
func bytesPerRun(runs int, fn func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := 0; r < runs; r++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestReadTraceAllocsRegression pins the allocation count of decoding an
// upload: frames stage in pooled buffers and samples decode in place into
// the presized sample slice, so a return to per-frame gob decoders, per-frame
// or per-Reader staging buffers or slice copies shows up here.
func TestReadTraceAllocsRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector inflates allocation counts")
	}
	wb := tinyWorkbench(t)
	bodies := make([][]byte, len(wb.Tested))
	for i, tr := range wb.Tested {
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		bodies[i] = buf.Bytes()
	}
	allocs, b := perTrace(len(bodies), func(i int) {
		tr, err := trace.ReadTrace(bytes.NewReader(bodies[i]))
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.Samples) != len(wb.Tested[i].Samples) {
			t.Fatalf("decoded %d samples, want %d", len(tr.Samples), len(wb.Tested[i].Samples))
		}
	})
	t.Logf("ReadTrace: %.0f allocs, %.1f KB per trace", allocs, b/1024)
	if allocs > maxReadTraceAllocs {
		t.Errorf("ReadTrace allocates %.0f objects/trace, ceiling %d — the upload decode regressed",
			allocs, maxReadTraceAllocs)
	}
	if b > maxReadTraceBytes {
		t.Errorf("ReadTrace allocates %.0f bytes/trace, ceiling %d — the upload decode regressed",
			b, maxReadTraceBytes)
	}
}

// TestWriteTraceAllocsRegression pins the cost of encoding one trace, which
// every client pays per upload and mosconsim per saved trace: frames are
// assembled in a pooled buffer, so a per-frame gob encoder or a per-write
// buffer coming back shows up here.
func TestWriteTraceAllocsRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector inflates allocation counts")
	}
	wb := tinyWorkbench(t)
	allocs, b := perTrace(len(wb.Tested), func(i int) {
		if _, err := wb.Tested[i].WriteTo(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("WriteTo: %.0f allocs, %.1f KB per trace", allocs, b/1024)
	if allocs > maxWriteTraceAllocs {
		t.Errorf("WriteTo allocates %.0f objects/trace, ceiling %d — the trace encoder regressed",
			allocs, maxWriteTraceAllocs)
	}
	if b > maxWriteTraceBytes {
		t.Errorf("WriteTo allocates %.0f bytes/trace, ceiling %d — the trace encoder regressed",
			b, maxWriteTraceBytes)
	}
}

// TestExtractAllocsRegression pins the allocation count of one extraction,
// the per-upload model work mosconsd runs after decoding.
func TestExtractAllocsRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector inflates allocation counts")
	}
	wb := tinyWorkbench(t)
	allocs, b := perTrace(len(wb.Tested), func(i int) {
		if _, err := wb.Models.ExtractTrace(wb.Tested[i]); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("ExtractTrace: %.0f allocs, %.1f KB per trace", allocs, b/1024)
	if allocs > maxExtractAllocs {
		t.Errorf("ExtractTrace allocates %.0f objects/trace, ceiling %d — the extraction hot path regressed",
			allocs, maxExtractAllocs)
	}
}

// TestDecodeRecycledBytes pins the upload decode in steady state: decoded
// into the sample and event buffers the previous upload's trace recycled,
// a decode allocates the header and its op table but no sample or event
// storage.
func TestDecodeRecycledBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector inflates allocation counts")
	}
	wb := tinyWorkbench(t)
	bodies := make([][]byte, len(wb.Tested))
	for i, tr := range wb.Tested {
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		bodies[i] = buf.Bytes()
	}
	_, b := perTrace(len(bodies), func(i int) {
		tr, err := trace.ReadTrace(bytes.NewReader(bodies[i]))
		if err != nil {
			t.Fatal(err)
		}
		trace.Recycle(tr)
	})
	t.Logf("ReadTrace + Recycle: %.1f KB per trace", b/1024)
	if b > maxDecodeRecycledBytes {
		t.Errorf("a recycled decode allocates %.0f bytes/trace, ceiling %d — uploads no longer decode into recycled buffers",
			b, maxDecodeRecycledBytes)
	}
}

// TestExtractBytesSteadyState pins the bytes of one warm extraction: the
// feature matrix and the vote matrices come from the extraction scratch, so
// a return to per-call matrices shows up here.
func TestExtractBytesSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector inflates allocation counts")
	}
	wb := tinyWorkbench(t)
	_, b := perTrace(len(wb.Tested), func(i int) {
		if _, err := wb.Models.ExtractTrace(wb.Tested[i]); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("ExtractTrace: %.1f KB per trace", b/1024)
	if b > maxExtractBytes {
		t.Errorf("a warm ExtractTrace allocates %.0f bytes/trace, ceiling %d — the extraction scratch is no longer reused",
			b, maxExtractBytes)
	}
}

// TestTrainModelsSteadyStateBytes pins what a warm model-set training
// allocates: the models it returns, the feature and vote matrices it trains
// on, and little else. Per-node index slices in Mgap's tree growth, or an
// LSTM working set built per Train call again, blow the ceiling.
func TestTrainModelsSteadyStateBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector inflates allocation counts")
	}
	wb := tinyWorkbench(t)
	cfg := wb.Scale.AttackConfig()
	train := func() {
		m, err := attack.TrainModels(wb.Profiled, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if m.Gap == nil || m.Long == nil || m.VOp == nil {
			t.Fatal("model set trained without every head")
		}
	}
	bytesPerRun(1, train) // warm the scratch list at the measured GOMAXPROCS
	b := bytesPerRun(2, train)
	t.Logf("warm TrainModels: %.1f KB", b/1024)
	if b > maxTrainModelsBytes {
		t.Errorf("a warm TrainModels allocates %.0f bytes, ceiling %d — training working memory is no longer reused",
			b, maxTrainModelsBytes)
	}
}

// TestCollectAllocsRegression pins the steady-state allocation count of one
// arena-backed trace collection.
func TestCollectAllocsRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector inflates allocation counts")
	}
	sc := eval.Tiny()
	model := sc.Tested[len(sc.Tested)-1]
	collect := func(seed int64) {
		tr, err := trace.Collect(model, sc.RunConfig(seed, true))
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.Samples) == 0 {
			t.Fatal("no samples")
		}
	}
	collect(0) // warm the arenas: the first run funds the scratch buffers
	avg := testing.AllocsPerRun(5, func() { collect(1) })
	b := bytesPerRun(5, func() { collect(1) })
	t.Logf("trace.Collect: %.0f allocs, %.1f KB per run", avg, b/1024)
	if avg > maxCollectAllocs {
		t.Errorf("trace.Collect allocates %.0f objects/run, ceiling %d — a hot-path allocation regressed",
			avg, maxCollectAllocs)
	}
	if b > maxCollectBytes {
		t.Errorf("trace.Collect allocates %.0f bytes/run, ceiling %d — a hot-path allocation regressed",
			b, maxCollectBytes)
	}
}

// TestFleetCollectAllocsRegression pins the whole fleet hot path: 8 devices'
// co-runs, supervisor, planner and hashing, on warm arenas.
func TestFleetCollectAllocsRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector inflates allocation counts")
	}
	cfg := fleet.Config{Base: eval.Tiny(), Devices: 8, CollectOnly: true}
	run := func() {
		res, err := fleet.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalSchedSlices == 0 {
			t.Fatal("fleet simulated nothing")
		}
	}
	run()
	avg := testing.AllocsPerRun(3, run)
	b := bytesPerRun(3, run)
	t.Logf("fleet.Run: %.0f allocs, %.1f KB per run", avg, b/1024)
	if avg > maxFleetAllocs {
		t.Errorf("fleet.Run allocates %.0f objects/run, ceiling %d — a hot-path allocation regressed",
			avg, maxFleetAllocs)
	}
	if b > maxFleetBytes {
		t.Errorf("fleet.Run allocates %.0f bytes/run, ceiling %d — a hot-path allocation regressed",
			b, maxFleetBytes)
	}
}

// TestFleetCampaignSteadyStateBytes pins what a campaign costs once the
// process has run one: the collection arenas and compiled ops outlive a
// campaign, so a second 96-device collect-only run starts warm. Arenas scoped
// to one campaign again, or a compile per session, blow the ceiling.
func TestFleetCampaignSteadyStateBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector inflates allocation counts")
	}
	cfg := fleet.Config{Base: eval.Tiny(), Devices: 96, CollectOnly: true}
	run := func() {
		res, err := fleet.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Quarantined != 0 || res.TotalSchedSlices == 0 {
			t.Fatalf("campaign quarantined %d devices, simulated %d slices", res.Quarantined, res.TotalSchedSlices)
		}
	}
	run()
	b := bytesPerRun(1, run)
	t.Logf("steady-state 96-device campaign: %.1f KB", b/1024)
	if b > maxCampaignBytes {
		t.Errorf("a warm 96-device campaign allocates %.0f bytes, ceiling %d — campaigns no longer reuse the process's arenas",
			b, maxCampaignBytes)
	}
}

// TestFleetJournaledCampaignBytes pins what the journal adds to a campaign:
// a warm 96-device collect-only campaign journaled to a fresh file, then
// resumed from it with every device replayed. Per-record gob encoders and
// decoders, a replay map of whole results, or a key computed twice per
// device blow the ceiling.
func TestFleetJournaledCampaignBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector inflates allocation counts")
	}
	dir := t.TempDir()
	campaigns := 0
	run := func() {
		campaigns++
		path := filepath.Join(dir, fmt.Sprintf("campaign-%d.journal", campaigns))
		for pass, wantReplayed := range []int{0, 96} {
			j, err := journal.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			res, err := fleet.Run(fleet.Config{Base: eval.Tiny(), Devices: 96, CollectOnly: true, Journal: j})
			if cerr := j.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				t.Fatal(err)
			}
			if res.Quarantined != 0 || res.Replayed != wantReplayed {
				t.Fatalf("pass %d: quarantined %d, replayed %d of 96, want %d", pass, res.Quarantined, res.Replayed, wantReplayed)
			}
		}
	}
	run()
	b := bytesPerRun(1, run)
	t.Logf("journaled 96-device campaign plus its resume: %.1f KB", b/1024)
	if b > maxJournaledCampaignBytes {
		t.Errorf("a journaled campaign and its resume allocate %.0f bytes, ceiling %d — journal records or replay regressed",
			b, maxJournaledCampaignBytes)
	}
}

// TestCollectWorkersScalingGate is the CI scaling gate: the 4-worker profiled
// fan-out must not run slower than the serial one (the Workers4 > Workers1
// inversion the pre-arena pipeline exhibited, where GC work induced by ~81k
// allocations per fleet run cost the parallel arms more than their
// parallelism recovered). Wall-clock comparisons are noisy, so each arm takes
// the best of three and the gate allows 5%; boxes without the cores to show a
// speedup skip rather than flake.
func TestCollectWorkersScalingGate(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("needs >= 4 CPUs, have %d", runtime.NumCPU())
	}
	measure := func(workers int) time.Duration {
		sc := eval.Tiny()
		sc.Workers = workers
		best := time.Duration(0)
		for r := 0; r < 3; r++ {
			start := time.Now()
			traces, err := sc.CollectTraces(context.Background(), nil, sc.Profiled, eval.StreamProfiled)
			elapsed := time.Since(start)
			if err != nil {
				t.Fatal(err)
			}
			if len(traces) != len(sc.Profiled) {
				t.Fatalf("collected %d traces, want %d", len(traces), len(sc.Profiled))
			}
			if best == 0 || elapsed < best {
				best = elapsed
			}
		}
		return best
	}
	measure(1) // warm caches and the scheduler before timing either arm
	t1 := measure(1)
	t4 := measure(4)
	if float64(t4) > 1.05*float64(t1) {
		t.Errorf("Workers4 best-of-3 %.1fms vs Workers1 %.1fms (> 1.05x): parallel fan-out inverted",
			float64(t4)/1e6, float64(t1)/1e6)
	}
}
