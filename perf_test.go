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
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

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
// Measured ~660 objects and ~123 KB per trace with wire format version 2,
// whose samples and events are binary frames and whose header is one gob
// message (version 1, a self-contained gob stream per chunk, cost ~3,900
// objects and ~333 KB). Nearly every object is gob compiling the header's
// decoder, so the count sits close to the floor: the slack (~15%, as before)
// covers toolchain drift but not one extra object per sample (~685 per
// trace). The byte ceiling (~35% over) is what catches an unpooled staging
// buffer or a second copy of the samples coming back.
const (
	maxReadTraceAllocs = 760
	maxReadTraceBytes  = 168 << 10
)

// maxWriteTraceAllocs and maxWriteTraceBytes bound encoding one tiny tested
// trace. Measured ~38 objects and ~7 KB per trace once frames are assembled
// in a pooled buffer (version 1's per-chunk gob encoders and bufio.Writer
// cost ~917 objects and ~572 KB); the byte ceiling leaves less room than one
// fresh write buffer.
const (
	maxWriteTraceAllocs = 48
	maxWriteTraceBytes  = 10 << 10
)

// maxExtractAllocs bounds one ExtractTrace over a tiny tested trace with the
// trained tiny model set. Measured ~225 once Predict took its argmax from the
// pooled step caches (the per-timestep probability clones cost ~1,460); the
// ceiling leaves the usual slack while still catching any per-timestep
// allocation sneaking back in.
const maxExtractAllocs = 600

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
			traces, err := sc.CollectTraces(sc.Profiled, eval.StreamProfiled)
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
