// Command perfbench is the repository's benchmark. It drives one workload
// from outside the program, calling only the public functions of
// internal/serve, internal/eval, internal/attack, internal/lstm,
// internal/trace, internal/fleet and internal/journal; checks every output;
// and prints each metric by name with its unit. The last line of standard
// output is one JSON object with the keys correct, attempted, failed and
// metrics: the end-to-end metrics of an untraced run, or with --trace 1 the
// per-layer metrics of a traced one. NOTES.md records the workloads and which
// end-to-end metric each per-layer metric should move.
//
//	perfbench --workload serve-mixed --seed 1 --seconds 15 --trace 0
//
// run.sh builds the command from the checkout's sources and runs it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "serve-mixed, workbench-build, fleet-collect, or all")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; equal seeds generate equal inputs")
	flag.IntVar(&o.seconds, "seconds", 15, "how long each timed phase measures")
	traceFlag := flag.Int("trace", 0, "1 adds a traced phase and reports per-layer metrics")
	flag.StringVar(&o.workDir, "workdir", filepath.Join(".bench_build", "work"), "scratch directory for journals")
	flag.StringVar(&o.spansDir, "spans-dir", filepath.Join(".bench_build", "spans"), "where a traced run writes its spans")
	flag.Parse()
	o.trace = *traceFlag == 1
	o.setupReps = 3
	o.setupMin = 5 * time.Second

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := runAll(ctx, o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// maxSetupReps caps how often a cheap setup repeats.
const maxSetupReps = 200

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// Set-up repeats at least setupReps times and for at least setupMin.
	setupReps int
	setupMin  time.Duration
	workDir   string
	spansDir  string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// digest pins the untraced phase's fingerprints and accuracies.
	digest string
}

// workload is one benchmark scenario.
type workload interface {
	// setup prepares inputs and reference outputs. It runs several times,
	// each timed; every call after the first replaces the previous state.
	setup(ctx context.Context, tr *tracer) error
	// phase is the timed phase, traced when tr is non-nil.
	phase(ctx context.Context, tr *tracer) (*phaseResult, error)
	// verify checks the phase's outputs, untimed, adding to pr.failed.
	verify(ctx context.Context, pr *phaseResult) error
	// layers is the untimed per-layer pass of a traced run; it adds the
	// per-layer values it measures itself to out.
	layers(ctx context.Context, tr *tracer, out map[string]float64) error
	close()
}

// phaseResult is what one timed phase produced.
type phaseResult struct {
	// lat holds one latency per operation; serve-mixed has one per fresh
	// open-loop upload, from its scheduled send time, and one per failure.
	lat []time.Duration
	// throughput is serve-mixed's closed-loop capacity: traces answered per
	// second.
	throughput float64
	// ops counts operations, the divisor of alloc_mb_per_op.
	ops               int
	attempted, failed int
	// problems names each failed check.
	problems []string
	// layer holds per-layer values the workload measures itself.
	layer map[string]float64
	// named holds the workload's end-to-end metrics under the names NOTES.md
	// uses (serve_p50_ms, workbench_wall_s, ...), for the human report.
	named map[string]metric
	// digest pins the outputs that must repeat at one seed: fingerprints,
	// trace hashes and accuracies.
	digest string

	// Filled in by measure.
	wall               time.Duration
	allocBytes         uint64
	gcCycles           uint32
	gcPause            time.Duration
	cpuUtil            float64
	generatorLateP99Ms float64
}

func (pr *phaseResult) fail(format string, args ...any) {
	pr.failed++
	if len(pr.problems) < 20 {
		pr.problems = append(pr.problems, fmt.Sprintf(format, args...))
	}
}

var workloadNames = []string{"serve-mixed", "workbench-build", "fleet-collect"}

func newWorkload(name string, o options) (workload, error) {
	switch name {
	case "serve-mixed":
		return newServeMixed(o), nil
	case "workbench-build":
		return newWorkbenchBuild(o), nil
	case "fleet-collect":
		return newFleetCollect(o), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want %s or all)", name, strings.Join(workloadNames, ", "))
}

// runAll runs one workload, or every workload for --workload all, whose
// metrics are then keyed "<workload>/<metric>".
func runAll(ctx context.Context, o options, out io.Writer) (*result, error) {
	if o.seconds < 1 {
		return nil, fmt.Errorf("--seconds must be >= 1, got %d", o.seconds)
	}
	if o.workload != "all" {
		return runOne(ctx, o.workload, o, out)
	}
	all := &result{Correct: true, Metrics: make(map[string]metric)}
	for _, name := range workloadNames {
		r, err := runOne(ctx, name, o, out)
		if err != nil {
			return nil, err
		}
		all.Correct = all.Correct && r.Correct
		all.Attempted += r.Attempted
		all.Failed += r.Failed
		for k, v := range r.Metrics {
			all.Metrics[name+"/"+k] = v
		}
	}
	return all, nil
}

func runOne(ctx context.Context, name string, o options, out io.Writer) (*result, error) {
	w, err := newWorkload(name, o)
	if err != nil {
		return nil, err
	}
	defer w.close()
	env := stamp(name, o)
	fmt.Fprintf(out, "env %s\n", mustJSON(env))

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	// Set up at least setupReps times and for at least setupMin, so that a
	// cheap setup is timed often enough for its median to hold still.
	var setups []float64
	begin := time.Now()
	for i := 0; i < max(1, o.setupReps) || (i < maxSetupReps && time.Since(begin) < o.setupMin); i++ {
		start := time.Now()
		if err := w.setup(ctx, tr); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	plain, err := measure(ctx, w, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	res := &result{Attempted: plain.attempted, Failed: plain.failed, digest: plain.digest}
	e2e := endToEnd(plain, median(setups))
	printMetrics(out, fmt.Sprintf("%s end-to-end (untraced, %d ops, %d latency samples, phase %.2fs)",
		name, plain.ops, len(plain.lat), plain.wall.Seconds()), named(plain, e2e))

	if !o.trace {
		res.Metrics = e2e
	} else {
		traced, err := measure(ctx, w, tr)
		if err != nil {
			return nil, fmt.Errorf("%s: traced phase: %w", name, err)
		}
		res.Attempted += traced.attempted
		res.Failed += traced.failed
		layer := make(map[string]float64)
		if err := w.layers(ctx, tr, layer); err != nil {
			return nil, fmt.Errorf("%s: layer pass: %w", name, err)
		}
		res.Metrics = perLayer(tr, plain, traced, layer)
		printLayers(out, name, res.Metrics, named(plain, e2e), named(traced, endToEnd(traced, median(setups))))
		path := filepath.Join(o.spansDir, fmt.Sprintf("%s-seed%d.jsonl", name, o.seed))
		if err := tr.write(path, env); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "spans written to %s\n", path)
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(out, "%s: attempted %d, failed %d, fail_frac %.4g\n",
		name, res.Attempted, res.Failed, float64(res.Failed)/float64(max(1, res.Attempted)))
	return res, nil
}

// measure runs one timed phase and then verifies it, recording the
// process-level counters of the timed part only.
func measure(ctx context.Context, w workload, tr *tracer) (*phaseResult, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	start := time.Now()
	pr, err := w.phase(ctx, tr)
	if err != nil {
		return nil, err
	}
	pr.wall = time.Since(start)
	cpu1 := cpuTime()
	runtime.ReadMemStats(&m1)
	pr.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	pr.gcCycles = m1.NumGC - m0.NumGC
	pr.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	pr.cpuUtil = (cpu1 - cpu0).Seconds() / (pr.wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
	if err := w.verify(ctx, pr); err != nil {
		return nil, err
	}
	for _, p := range pr.problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	return pr, nil
}

// endToEnd maps a phase onto the metrics BENCHMARK.json declares. Latencies
// and serve-mixed's closed-loop capacity are left to the human report: on a
// shared machine their spread across runs passed the largest bound allowed
// (NOTES.md, Steadiness).
func endToEnd(pr *phaseResult, setupS float64) map[string]metric {
	return map[string]metric{
		"setup_s":         {setupS, "s"},
		"alloc_mb_per_op": {float64(pr.allocBytes) / 1e6 / float64(max(1, pr.ops)), "MB"},
		"max_rss_mb":      {maxRSSMB(), "MB"},
	}
}

// perLayer assembles the per-layer metrics of a traced run from its spans,
// the workload's own measurements, and the two phases' process counters.
func perLayer(tr *tracer, plain, traced *phaseResult, layer map[string]float64) map[string]metric {
	m := make(map[string]metric)
	for _, d := range layerCatalog {
		m[d.name] = metric{0, d.unit}
	}
	set := func(name string, v float64) {
		d, ok := m[name]
		if !ok {
			panic("perfbench: per-layer metric missing from catalog: " + name)
		}
		d.Value = v
		m[name] = d
	}
	p50ms := func(name string) float64 { return ms(quantile(tr.durations(name), 0.50)) }
	for _, name := range []string{"attack.featurize", "attack.split", "lstm.mlong", "lstm.mop", "lstm.mhp", "attack.extract", "trace.decode", "trace.collect"} {
		set(name+"_ms", p50ms(name))
	}
	// Extraction self time: the extract span minus the five stages that the
	// staged pass timed for the same upload.
	self := tr.byReq("attack.extract")
	for _, stage := range []string{"attack.featurize", "attack.split", "lstm.mlong", "lstm.mop", "lstm.mhp"} {
		for req, d := range tr.byReq(stage) {
			self[req] -= d
		}
	}
	var selfMs []float64
	for _, d := range self {
		selfMs = append(selfMs, ms(d))
	}
	set("attack.vote_parse_ms", median(selfMs))
	set("attack.extract_allocs", tr.counter("attack.extract_allocs")/max(1, tr.counter("attack.extract_calls")))
	appends := tr.durations("journal.append")
	set("journal.append_p50_ms", ms(quantile(appends, 0.50)))
	set("journal.append_p99_ms", ms(quantile(appends, 0.99)))
	if d := tr.counter("trace.collect_ns"); d > 0 {
		set("gpu.slices_per_s", tr.counter("gpu.sched_slices")/(d/1e9))
	}
	set("cpu_util", traced.cpuUtil)
	set("gc.cycles", float64(traced.gcCycles))
	set("gc.pause_ms", ms(traced.gcPause))
	set("gen.late_p99_ms", traced.generatorLateP99Ms)
	set("tracing.overhead_p50_ms", ms(quantile(traced.lat, 0.50))-ms(quantile(plain.lat, 0.50)))
	for k, v := range layer {
		set(k, v)
	}
	for k, v := range traced.layer {
		set(k, v)
	}
	return m
}

// named adds to the JSON metrics the end-to-end metrics under the names
// NOTES.md uses, for the human report.
func named(pr *phaseResult, e2e map[string]metric) map[string]metric {
	m := map[string]metric{
		"fail_frac": {float64(pr.failed) / float64(max(1, pr.attempted)), "ratio"},
		"alloc_mb":  {float64(pr.allocBytes) / 1e6, "MB"},
	}
	for k, v := range e2e {
		m[k] = v
	}
	for k, v := range pr.named {
		m[k] = v
	}
	return m
}

func printMetrics(out io.Writer, title string, m map[string]metric) {
	fmt.Fprintf(out, "%s:\n", title)
	for _, k := range sortedKeys(m) {
		fmt.Fprintf(out, "  %-30s %12.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}

// printLayers prints each per-layer metric next to the end-to-end metrics it
// should move, then the tracing overhead: traced minus untraced.
func printLayers(out io.Writer, name string, layer, plain, traced map[string]metric) {
	fmt.Fprintf(out, "%s per-layer (traced phase):\n", name)
	for _, d := range layerCatalog {
		fmt.Fprintf(out, "  %-26s %12.4f %-6s -> %s\n", d.name, layer[d.name].Value, d.unit, d.moves)
	}
	overhead := make(map[string]metric)
	for k, v := range plain {
		if k != "setup_s" && k != "max_rss_mb" {
			overhead[k] = metric{traced[k].Value - v.Value, v.Unit}
		}
	}
	printMetrics(out, name+" tracing overhead (traced - untraced)", overhead)
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}
