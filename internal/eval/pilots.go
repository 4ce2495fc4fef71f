package eval

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"leakydnn/internal/cupti"
	"leakydnn/internal/dnn"
	"leakydnn/internal/gpu"
	"leakydnn/internal/mat"
	"leakydnn/internal/par"
	"leakydnn/internal/spy"
	"leakydnn/internal/tfsim"
)

// The two counters Tables I and II report.
const (
	event1 = cupti.FBSubp1WriteSectors
	event2 = cupti.FBSubp0ReadSectors
)

// CellStat is one "average (standard deviation)" table cell.
type CellStat struct {
	Mean, Std float64
	N         int
}

func (c CellStat) String() string {
	return fmt.Sprintf("%.2f(%.2f)", c.Mean, c.Std)
}

// referenceOps compiles a small reference CNN at the scale's workload size
// and returns its ops, used to materialize single-op victims for the pilot
// studies of §III-C.
func (sc Scale) referenceOps() ([]dnn.Op, error) {
	if len(sc.Profiled) == 0 {
		return nil, fmt.Errorf("eval: scale %q has no profiled models", sc.Name)
	}
	base := sc.Profiled[0]
	ref := dnn.Model{
		Name:  "pilot-ref",
		Input: base.Input,
		Batch: base.Batch,
		Layers: []dnn.Layer{
			dnn.Conv(3, 64, 1, dnn.ActSigmoid),
			dnn.MaxPool(),
			dnn.FC(256, dnn.ActReLU),
		},
		Optimizer: dnn.OptimizerGD,
	}
	return dnn.Compile(ref)
}

// victimOpKernel returns the reference kernel of the requested op kind.
func (sc Scale) victimOpKernel(kind dnn.OpKind) (gpu.KernelProfile, error) {
	ops, err := sc.referenceOps()
	if err != nil {
		return gpu.KernelProfile{}, err
	}
	for i := range ops {
		if ops[i].Kind == kind {
			return ops[i].Kernel(sc.Device), nil
		}
	}
	return gpu.KernelProfile{}, fmt.Errorf("eval: reference model has no %s op", kind)
}

// pilotSamples co-runs one spy probe (no slow-down: the paper's pilot
// setting) against an optional repeating victim kernel and returns the
// probe's fixed-period samples.
func (sc Scale) pilotSamples(probe spy.Kind, victim *gpu.KernelProfile, minSamples int, seed int64) ([]cupti.Sample, error) {
	prog, err := spy.NewProgram(spy.Config{
		Ctx:          trace2SpyCtx,
		Probe:        probe,
		TimeScale:    sc.TimeScale,
		SamplePeriod: sc.SamplePeriod,
	})
	if err != nil {
		return nil, err
	}
	eng, err := gpu.NewEngine(sc.Device, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	eng.OnSlice = prog.ObserveSlice
	eng.OnKernelEnd = prog.ObserveKernelEnd
	if victim != nil {
		if !eng.AddChannel(trace2VictimCtx, &gpu.RepeatSource{Kernel: *victim}) {
			return nil, fmt.Errorf("eval: scheduler rejected pilot victim channel (ctx %d)", trace2VictimCtx)
		}
	}
	if err := prog.AttachTimeSliced(eng); err != nil {
		return nil, err
	}

	horizon := gpu.Nanos(minSamples+8) * sc.SamplePeriod * 4
	eng.Run(horizon)
	samples := prog.Samples(eng.Now())
	if len(samples) < minSamples {
		return nil, fmt.Errorf("eval: pilot collected %d samples, want >= %d", len(samples), minSamples)
	}
	// Drop warm-up windows.
	return samples[2:], nil
}

const (
	trace2VictimCtx gpu.ContextID = 1
	trace2SpyCtx    gpu.ContextID = 2
)

func statsOf(samples []cupti.Sample, ev cupti.Event) CellStat {
	vals := make([]float64, len(samples))
	for i, s := range samples {
		vals[i] = s.Values[ev]
	}
	return CellStat{Mean: mat.Mean(vals), Std: mat.Std(vals), N: len(vals)}
}

// Table1Result reproduces Table I: the CUPTI readings of the five candidate
// spy kernels while the victim runs MatMul.
type Table1Result struct {
	Rows []Table1Row
}

// Table1Row is one spy kernel's readings.
type Table1Row struct {
	Spy              spy.Kind
	Event1, Event2   CellStat
	RelStdDevEvent1  float64
	SamplesCollected int
}

// Table1 runs the spy-kernel selection pilot (§III-C, Table I).
func Table1(sc Scale, samplesPerCell int) (*Table1Result, error) {
	victim, err := sc.victimOpKernel(dnn.OpMatMul)
	if err != nil {
		return nil, err
	}
	kinds := spy.Kinds()
	rows, err := par.MapCtx(context.Background(), sc.Workers, len(kinds), func(i int) (Table1Row, error) {
		samples, err := sc.pilotSamples(kinds[i], &victim, samplesPerCell, sc.StreamSeed(StreamPilotSpy, i))
		if err != nil {
			return Table1Row{}, err
		}
		row := Table1Row{
			Spy:              kinds[i],
			Event1:           statsOf(samples, event1),
			Event2:           statsOf(samples, event2),
			SamplesCollected: len(samples),
		}
		if row.Event1.Mean > 0 {
			row.RelStdDevEvent1 = row.Event1.Std / row.Event1.Mean
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &Table1Result{Rows: rows}, nil
}

// Render prints the table in the paper's layout.
func (r *Table1Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table I: CUPTI readings of spy kernels, victim=MatMul\n")
	fmt.Fprintf(&b, "%-12s %-20s %-20s\n", "Spy Kernel", "Event1 (fb w1)", "Event2 (fb r0)")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s %-20s %-20s\n", row.Spy, row.Event1, row.Event2)
	}
	return b.String()
}

// Table2Result reproduces Table II: Conv200's readings across victim ops.
type Table2Result struct {
	Rows []Table2Row
}

// Table2Row is one victim op's effect on the Conv200 spy.
type Table2Row struct {
	Victim         string
	Event1, Event2 CellStat
}

// Table2 runs the victim-op discriminability pilot (§III-C, Table II).
func Table2(sc Scale, samplesPerCell int) (*Table2Result, error) {
	victims := []struct {
		name string
		kind dnn.OpKind
	}{
		{"MatMul", dnn.OpMatMul},
		{"Conv2D", dnn.OpConv2D},
		{"ReLU", dnn.OpReLU},
		{"BiasAdd", dnn.OpBiasAdd},
		{"Sigmoid", dnn.OpSigmoid},
	}
	// The last task is the NOP row (idle victim, the stream's last index).
	rows, err := par.MapCtx(context.Background(), sc.Workers, len(victims)+1, func(i int) (Table2Row, error) {
		name, kernel, seed := "NOP", (*gpu.KernelProfile)(nil), sc.StreamSeed(StreamPilotVictim, len(victims))
		if i < len(victims) {
			k, err := sc.victimOpKernel(victims[i].kind)
			if err != nil {
				return Table2Row{}, err
			}
			name, kernel, seed = victims[i].name, &k, sc.StreamSeed(StreamPilotVictim, i)
		}
		samples, err := sc.pilotSamples(spy.Conv200, kernel, samplesPerCell, seed)
		if err != nil {
			return Table2Row{}, err
		}
		return Table2Row{
			Victim: name,
			Event1: statsOf(samples, event1),
			Event2: statsOf(samples, event2),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Table2Result{Rows: rows}, nil
}

// Render prints the table in the paper's layout.
func (r *Table2Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table II: Conv200 spy readings per victim op\n")
	fmt.Fprintf(&b, "%-10s %-20s %-20s\n", "Victim Op", "Event1 (fb w1)", "Event2 (fb r0)")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %-20s %-20s\n", row.Victim, row.Event1, row.Event2)
	}
	return b.String()
}

// FigSamplingResult reproduces Figures 2 and 3: how many probe-kernel
// samples the spy obtains per victim training iteration under each
// scheduler.
type FigSamplingResult struct {
	Mode                string // "MPS" or "time-sliced"
	PerIteration        []int
	MeanPerIteration    float64
	ProbeCompletionsAll int
}

// FigSampling runs the Figure-2/3 comparison on the first tested model.
// mps=true reproduces Figure 2 (spy starved to ~one sample per iteration);
// mps=false reproduces Figure 3 (time-slicing yields many samples).
func FigSampling(sc Scale, mps bool) (*FigSamplingResult, error) {
	if len(sc.Tested) == 0 {
		return nil, fmt.Errorf("eval: scale %q has no tested models", sc.Name)
	}
	// Use the CNN (last tested model): its iterations are long enough for
	// the sampling-rate contrast to be meaningful, like the paper's victim.
	victim := sc.Tested[len(sc.Tested)-1]
	sess, err := tfsim.NewSession(victim, tfsim.Config{
		Iterations: sc.Iterations,
		IterGap:    sc.IterGap,
	}, sc.Device)
	if err != nil {
		return nil, err
	}
	prog, err := spy.NewProgram(spy.Config{
		Ctx:       trace2SpyCtx,
		Probe:     spy.Conv200,
		TimeScale: sc.TimeScale,
		// SamplePeriod 0: per-probe-kernel sampling, as the paper's spy does.
	})
	if err != nil {
		return nil, err
	}

	tl := &tfsim.Timeline{}
	var spyEnds []gpu.Nanos
	onEnd := func(span gpu.KernelSpan) {
		tl.Observe(span)
		prog.ObserveKernelEnd(span)
		if span.Ctx == trace2SpyCtx && strings.HasPrefix(span.Kernel.Name, "spy.Conv200") {
			spyEnds = append(spyEnds, span.End)
		}
	}

	mode := "time-sliced"
	rng := rand.New(rand.NewSource(sc.StreamSeed(StreamFigSampling, 0)))
	if mps {
		mode = "MPS"
		eng, err := gpu.NewMPSEngine(sc.Device, rng, sess.Source())
		if err != nil {
			return nil, err
		}
		eng.OnKernelEnd = onEnd
		eng.OnSlice = prog.ObserveSlice
		prog.AttachMPS(eng)
		horizon := (sess.IterationDuration() + sc.IterGap) * gpu.Nanos(sc.Iterations) * 4
		eng.Run(horizon)
	} else {
		eng, err := gpu.NewEngine(sc.Device, rng)
		if err != nil {
			return nil, err
		}
		eng.OnKernelEnd = onEnd
		eng.OnSlice = prog.ObserveSlice
		if !eng.AddChannel(trace2VictimCtx, sess.Source()) {
			return nil, fmt.Errorf("eval: scheduler rejected victim channel (ctx %d)", trace2VictimCtx)
		}
		if err := prog.AttachTimeSliced(eng); err != nil {
			return nil, err
		}
		horizon := (sess.IterationDuration() + sc.IterGap) * gpu.Nanos(sc.Iterations) * 40
		eng.Run(horizon)
	}

	res := &FigSamplingResult{Mode: mode}
	var total int
	observed := 0
	for iter := 0; iter < sc.Iterations; iter++ {
		start, end, ok := tl.IterationSpan(iter)
		if !ok {
			continue
		}
		observed++
		count := 0
		for _, at := range spyEnds {
			if at >= start && at < end {
				count++
			}
		}
		res.PerIteration = append(res.PerIteration, count)
		total += count
	}
	if observed > 0 {
		res.MeanPerIteration = float64(total) / float64(observed)
	}
	res.ProbeCompletionsAll = len(spyEnds)
	return res, nil
}

// Render prints the sampling series.
func (r *FigSamplingResult) Render() string {
	var b strings.Builder
	fig := "Figure 3"
	if r.Mode == "MPS" {
		fig = "Figure 2"
	}
	fmt.Fprintf(&b, "%s: spy samples per victim iteration under %s\n", fig, r.Mode)
	for i, n := range r.PerIteration {
		fmt.Fprintf(&b, "  iteration %d: %d samples\n", i, n)
	}
	fmt.Fprintf(&b, "  mean %.2f samples/iteration\n", r.MeanPerIteration)
	return b.String()
}
