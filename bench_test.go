// Benchmarks regenerating every table and figure of the paper's evaluation
// (one benchmark per artifact, as DESIGN.md's experiment index maps out),
// plus throughput benchmarks for the simulator and the attack pipeline.
// Custom metrics attach each artifact's headline numbers to the benchmark
// output, so `go test -bench=. -benchmem` doubles as a results report.
package leakydnn

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"leakydnn/internal/attack"
	"leakydnn/internal/eval"
	"leakydnn/internal/fleet"
	"leakydnn/internal/gbdt"
	"leakydnn/internal/gpu"
	"leakydnn/internal/lstm"
	"leakydnn/internal/spy"
	"leakydnn/internal/trace"
)

// benchScale is the platform scale every artifact benchmark runs at. The
// tiny scale keeps the full battery under a few minutes; use
// `cmd/paperbench -scale mid|paper` for larger regenerations.
func benchScale() eval.Scale { return eval.Tiny() }

var (
	workbenchOnce sync.Once
	workbench     *eval.Workbench
	workbenchErr  error
)

// sharedWorkbench trains the MoSConS models once for all attack benchmarks.
func sharedWorkbench(b *testing.B) *eval.Workbench {
	b.Helper()
	workbenchOnce.Do(func() {
		workbench, workbenchErr = eval.NewWorkbench(benchScale())
	})
	if workbenchErr != nil {
		b.Fatal(workbenchErr)
	}
	return workbench
}

// BenchmarkTable1SpyKernels regenerates Table I (spy-kernel selection).
func BenchmarkTable1SpyKernels(b *testing.B) {
	sc := benchScale()
	var conv200Mean float64
	for i := 0; i < b.N; i++ {
		res, err := eval.Table1(sc, 40)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if row.Spy == spy.Conv200 {
				conv200Mean = row.Event1.Mean
			}
		}
	}
	b.ReportMetric(conv200Mean, "conv200-ev1-mean")
}

// BenchmarkTable2VictimOps regenerates Table II (victim-op pilot).
func BenchmarkTable2VictimOps(b *testing.B) {
	sc := benchScale()
	var nopOverBusy float64
	for i := 0; i < b.N; i++ {
		res, err := eval.Table2(sc, 40)
		if err != nil {
			b.Fatal(err)
		}
		var nop, matmul eval.Table2Row
		for _, row := range res.Rows {
			switch row.Victim {
			case "NOP":
				nop = row
			case "MatMul":
				matmul = row
			}
		}
		if matmul.Event2.Mean > 0 {
			nopOverBusy = nop.Event2.Mean / matmul.Event2.Mean
		}
	}
	b.ReportMetric(nopOverBusy, "nop/busy-ratio")
}

// BenchmarkFig2MPSSampling regenerates Figure 2 (MPS starves the spy).
func BenchmarkFig2MPSSampling(b *testing.B) {
	sc := benchScale()
	sc.Iterations = 4
	var mean float64
	for i := 0; i < b.N; i++ {
		res, err := eval.FigSampling(sc, true)
		if err != nil {
			b.Fatal(err)
		}
		mean = res.MeanPerIteration
	}
	b.ReportMetric(mean, "samples/iter")
}

// BenchmarkFig3TimeSlicedSampling regenerates Figure 3 (time-sliced yields
// many samples per iteration).
func BenchmarkFig3TimeSlicedSampling(b *testing.B) {
	sc := benchScale()
	sc.Iterations = 4
	var mean float64
	for i := 0; i < b.N; i++ {
		res, err := eval.FigSampling(sc, false)
		if err != nil {
			b.Fatal(err)
		}
		mean = res.MeanPerIteration
	}
	b.ReportMetric(mean, "samples/iter")
}

// BenchmarkTable6IterationSplit regenerates Table VI (Mgap accuracy).
func BenchmarkTable6IterationSplit(b *testing.B) {
	w := sharedWorkbench(b)
	var nop, busy float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := w.Table6()
		if err != nil {
			b.Fatal(err)
		}
		nop, busy = 0, 0
		for _, row := range res.Rows {
			nop += row.NOPAcc
			busy += row.BusyAcc
		}
		nop /= float64(len(res.Rows))
		busy /= float64(len(res.Rows))
	}
	b.ReportMetric(nop*100, "nop-acc-%")
	b.ReportMetric(busy*100, "busy-acc-%")
}

// BenchmarkTable7OpInference regenerates Table VII (op inference, pre- and
// post-voting — the voting ablation's two arms).
func BenchmarkTable7OpInference(b *testing.B) {
	w := sharedWorkbench(b)
	var pre, vote float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := w.Table7()
		if err != nil {
			b.Fatal(err)
		}
		pre, vote = 0, 0
		for _, row := range res.Rows {
			pre += row.OverallPre
			vote += row.OverallVote
		}
		pre /= float64(len(res.Rows))
		vote /= float64(len(res.Rows))
	}
	b.ReportMetric(pre*100, "prevote-acc-%")
	b.ReportMetric(vote*100, "voted-acc-%")
}

// BenchmarkTable8HyperParams regenerates Table VIII for the two cheapest
// hyper-parameter kinds (the full five-kind sweep runs via cmd/paperbench).
func BenchmarkTable8HyperParams(b *testing.B) {
	sc := benchScale()
	sc.Iterations = 5
	var acc float64
	for i := 0; i < b.N; i++ {
		res, err := eval.Table8(sc, []attack.HPKind{attack.HPStride, attack.HPOptimizer})
		if err != nil {
			b.Fatal(err)
		}
		acc = 0
		for _, row := range res.Rows {
			acc += row.Accuracy
		}
		acc /= float64(len(res.Rows))
	}
	b.ReportMetric(acc*100, "hp-acc-%")
}

// BenchmarkTable9LayerSequence regenerates Table IX (end-to-end recovery).
func BenchmarkTable9LayerSequence(b *testing.B) {
	w := sharedWorkbench(b)
	var layers, hp float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := w.Table9()
		if err != nil {
			b.Fatal(err)
		}
		layers, hp = 0, 0
		for _, row := range res.Rows {
			layers += row.LayerAcc
			hp += row.HPAcc
		}
		layers /= float64(len(res.Rows))
		hp /= float64(len(res.Rows))
	}
	b.ReportMetric(layers*100, "layer-acc-%")
	b.ReportMetric(hp*100, "hp-acc-%")
}

// BenchmarkSlowdownImpact regenerates §V-F (victim/spy slow-down ratios).
func BenchmarkSlowdownImpact(b *testing.B) {
	sc := benchScale()
	var victim, spySlow float64
	for i := 0; i < b.N; i++ {
		res, err := eval.SlowdownImpact(sc)
		if err != nil {
			b.Fatal(err)
		}
		victim = res.VictimSlowdownAttack
		spySlow = res.SpySlowdown
	}
	b.ReportMetric(victim, "victim-slowdown-x")
	b.ReportMetric(spySlow, "spy-slowdown-x")
}

// BenchmarkSlowdownSweep regenerates the §IV parameter search showing the
// slow-down upper bound.
func BenchmarkSlowdownSweep(b *testing.B) {
	sc := benchScale()
	sc.Iterations = 3
	var best float64
	for i := 0; i < b.N; i++ {
		points, err := eval.SlowdownSweep(sc, []int{1, 8}, []int{32}, []int{256})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			if p.VictimSlowdown > best {
				best = p.VictimSlowdown
			}
		}
	}
	b.ReportMetric(best, "max-slowdown-x")
}

// BenchmarkGapSweep regenerates §V-B's batch/image-size robustness sweep.
func BenchmarkGapSweep(b *testing.B) {
	w := sharedWorkbench(b)
	var acc float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := w.GapSweep([]int{8, 16}, []int{32})
		if err != nil {
			b.Fatal(err)
		}
		acc = 0
		for _, row := range res.Rows {
			acc += row.NOPAcc
		}
		acc /= float64(len(res.Rows))
	}
	b.ReportMetric(acc*100, "nop-acc-%")
}

// BenchmarkDefenses regenerates the §VI countermeasure comparison.
func BenchmarkDefenses(b *testing.B) {
	w := sharedWorkbench(b)
	var baseline, hardened float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := w.EvaluateDefenses(2000, 1.0)
		if err != nil {
			b.Fatal(err)
		}
		baseline = res.Rows[0].LetterAccuracy
		hardened = res.Rows[len(res.Rows)-1].LetterAccuracy
	}
	b.ReportMetric(baseline*100, "undefended-acc-%")
	b.ReportMetric(hardened*100, "hardened-acc-%")
}

// BenchmarkAblationSyntax measures the smoothing/syntax-correction stages.
func BenchmarkAblationSyntax(b *testing.B) {
	w := sharedWorkbench(b)
	var raw, full float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := w.AblationSyntax()
		if err != nil {
			b.Fatal(err)
		}
		raw, full = 0, 0
		for _, row := range res.Rows {
			raw += row.RawLayerAcc
			full += row.FullLayerAcc
		}
		raw /= float64(len(res.Rows))
		full /= float64(len(res.Rows))
	}
	b.ReportMetric(raw*100, "raw-layer-acc-%")
	b.ReportMetric(full*100, "full-layer-acc-%")
}

// BenchmarkAblationSlowdown measures the sample-yield gain of the slow-down
// attack.
func BenchmarkAblationSlowdown(b *testing.B) {
	sc := benchScale()
	var gain float64
	for i := 0; i < b.N; i++ {
		res, err := eval.AblationSlowdown(sc)
		if err != nil {
			b.Fatal(err)
		}
		gain = res.Gain
	}
	b.ReportMetric(gain, "sample-gain-x")
}

// BenchmarkAblationWeightedLoss compares Mlong's weighted vs uniform loss.
func BenchmarkAblationWeightedLoss(b *testing.B) {
	sc := benchScale()
	var weighted, uniform float64
	for i := 0; i < b.N; i++ {
		res, err := eval.AblationWeightedLoss(sc)
		if err != nil {
			b.Fatal(err)
		}
		weighted = res.WeightedAcc
		uniform = res.UniformAcc
	}
	b.ReportMetric(weighted*100, "weighted-acc-%")
	b.ReportMetric(uniform*100, "uniform-acc-%")
}

// BenchmarkEngineThroughput measures raw simulator speed: scheduler grants
// per second under a contended two-context workload. The slices/sec metric is
// the engine's headline throughput number — wall-clock spent per simulated
// scheduler grant.
func BenchmarkEngineThroughput(b *testing.B) {
	cfg := gpu.DefaultDeviceConfig()
	totalSlices := 0
	start := time.Now()
	for i := 0; i < b.N; i++ {
		eng, err := gpu.NewEngine(cfg, rand.New(rand.NewSource(1)))
		if err != nil {
			b.Fatal(err)
		}
		slices := 0
		eng.OnSlice = func(*gpu.SliceRecord) { slices++ }
		victim := gpu.KernelProfile{Name: "v", Blocks: 64, ThreadsPerBlock: 256,
			FLOPs: 5e9, ReadBytes: 1 << 24, WriteBytes: 1 << 24, WorkingSetBytes: 1 << 20}
		eng.AddChannel(1, &gpu.RepeatSource{Kernel: victim})
		for j := 0; j < 8; j++ {
			eng.AddChannel(2, &gpu.RepeatSource{Kernel: victim})
		}
		eng.Run(2 * gpu.Second)
		if slices == 0 {
			b.Fatal("no slices simulated")
		}
		totalSlices += slices
	}
	if elapsed := time.Since(start).Seconds(); elapsed > 0 {
		b.ReportMetric(float64(totalSlices)/elapsed, "slices/sec")
	}
}

// BenchmarkTraceCollect measures a full co-run + alignment at tiny scale.
func BenchmarkTraceCollect(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		tr, err := trace.Collect(sc.Tested[len(sc.Tested)-1], sc.RunConfig(int64(i), true))
		if err != nil {
			b.Fatal(err)
		}
		if len(tr.Samples) == 0 {
			b.Fatal("no samples")
		}
	}
}

// benchCollectWorkers regenerates the profiled trace set under a fixed
// worker-pool size; comparing the Workers1/Workers4 variants measures the
// deterministic fan-out's speedup (expect ~linear scaling on a multi-core
// runner, and identical traces at any setting).
func benchCollectWorkers(b *testing.B, workers int) {
	sc := benchScale()
	sc.Workers = workers
	for i := 0; i < b.N; i++ {
		traces, err := sc.CollectTraces(context.Background(), nil, sc.Profiled, eval.StreamProfiled)
		if err != nil {
			b.Fatal(err)
		}
		if len(traces) != len(sc.Profiled) {
			b.Fatalf("collected %d traces, want %d", len(traces), len(sc.Profiled))
		}
	}
}

func BenchmarkCollectTracesWorkers1(b *testing.B) { benchCollectWorkers(b, 1) }
func BenchmarkCollectTracesWorkers4(b *testing.B) { benchCollectWorkers(b, 4) }

// benchFleetCollect runs a collect-only fleet — eight heterogeneous devices,
// one victim+spy engine each, all real work on one shared pool — under a
// fixed worker budget. The aggregate slices/sec metric is the fleet's
// headline simulator throughput; comparing the Workers1/Workers4 variants
// measures the device fan-out's speedup (expect ~linear scaling on a
// multi-core runner, and byte-identical per-device traces at any setting —
// the fleet package's golden-hash tests pin that).
func benchFleetCollect(b *testing.B, workers int) {
	sc := benchScale()
	sc.Workers = workers
	cfg := fleet.Config{Base: sc, Devices: 8, CollectOnly: true}
	totalSlices := 0
	start := time.Now()
	for i := 0; i < b.N; i++ {
		res, err := fleet.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.TotalSchedSlices == 0 {
			b.Fatal("fleet simulated no scheduler grants")
		}
		totalSlices += res.TotalSchedSlices
	}
	if elapsed := time.Since(start).Seconds(); elapsed > 0 {
		b.ReportMetric(float64(totalSlices)/elapsed, "slices/sec")
	}
}

func BenchmarkFleetCollectWorkers1(b *testing.B) { benchFleetCollect(b, 1) }
func BenchmarkFleetCollectWorkers4(b *testing.B) { benchFleetCollect(b, 4) }

// benchWorkbench builds the full pipelined Workbench — profiled and tested
// collection on one shared pool, training overlapped with the tested set —
// under a fixed worker budget. Comparing the Workers1/Workers4 variants
// measures the pipeline overlap (expect gains on a multi-core runner, and
// byte-identical results at any setting).
func benchWorkbench(b *testing.B, workers int) {
	sc := benchScale()
	sc.Workers = workers
	for i := 0; i < b.N; i++ {
		w, err := eval.NewWorkbench(sc)
		if err != nil {
			b.Fatal(err)
		}
		if w.Models == nil || len(w.Tested) != len(sc.Tested) {
			b.Fatal("incomplete workbench")
		}
	}
}

func BenchmarkWorkbenchWorkers1(b *testing.B) { benchWorkbench(b, 1) }
func BenchmarkWorkbenchWorkers4(b *testing.B) { benchWorkbench(b, 4) }

// benchTrainModels runs the full MoSConS training at scale sc, with trace
// collection outside the timer.
func benchTrainModels(b *testing.B, sc eval.Scale) {
	profiled, err := sc.CollectTraces(context.Background(), nil, sc.Profiled, eval.StreamProfiled)
	if err != nil {
		b.Fatal(err)
	}
	cfg := sc.AttackConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		models, err := attack.TrainModels(profiled, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if models.Long == nil || models.Op == nil {
			b.Fatal("training produced incomplete model set")
		}
	}
}

// BenchmarkTrainModelsBatch1 times training at the production operating
// point: eval.Tiny()'s own attack config, whose LSTM Batch is 1, which is
// what serve.ModelCache, the Workbench, fleet and the -batch flags' default
// train. The per-timestep BPTT work is the one this shape stresses.
func BenchmarkTrainModelsBatch1(b *testing.B) { benchTrainModels(b, benchScale()) }

// The Workers1/Workers4 variants train at Batch=8, a golden-pinned
// deterministic path (internal/lstm/golden_test.go) that no production
// caller selects. Comparing the two measures the head fan-out's speedup
// (expect gains on a multi-core runner, and byte-identical models at any
// setting).
func benchTrainModelsBatch8(b *testing.B, workers int) {
	sc := benchScale()
	sc.Workers = workers
	sc.Attack.Batch = 8
	benchTrainModels(b, sc)
}

func BenchmarkTrainModelsWorkers1(b *testing.B) { benchTrainModelsBatch8(b, 1) }
func BenchmarkTrainModelsWorkers4(b *testing.B) { benchTrainModelsBatch8(b, 4) }

// BenchmarkBPTTSingleThread isolates raw LSTM BPTT throughput — one
// network, one epoch per iteration, no attack pipeline around it — at the
// op-classifier's scale, at Batch=8. No CI step runs it; it is a local
// probe of the batched kernels.
func BenchmarkBPTTSingleThread(b *testing.B) {
	const (
		inputDim = 8
		classes  = 10
		seqCount = 32
		seqLen   = 30
	)
	rng := rand.New(rand.NewSource(42))
	seqs := make([]lstm.Sequence, seqCount)
	for i := range seqs {
		in := make([][]float64, seqLen)
		labels := make([]int, seqLen)
		for t := range in {
			v := make([]float64, inputDim)
			for j := range v {
				v[j] = rng.NormFloat64()
			}
			in[t] = v
			labels[t] = rng.Intn(classes)
		}
		seqs[i] = lstm.Sequence{Inputs: in, Labels: labels}
	}
	n, err := lstm.New(lstm.Config{
		InputDim: inputDim, Hidden: 40, Classes: classes, Seed: 7,
		Batch: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	tokens := int64(seqCount * seqLen)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.Train(seqs, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tokens)*float64(b.N)/b.Elapsed().Seconds(), "timesteps/s")
}

// BenchmarkExtraction measures one full MoSConS extraction on a collected
// trace (training excluded).
func BenchmarkExtraction(b *testing.B) {
	w := sharedWorkbench(b)
	samples := w.Tested[len(w.Tested)-1].Samples
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Models.Extract(samples); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselineComparison regenerates the §I/§VII framing comparison:
// the prior MPS attack's single recovered number vs MoSConS's structure.
func BenchmarkBaselineComparison(b *testing.B) {
	w := sharedWorkbench(b)
	var perIter float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := w.CompareBaseline()
		if err != nil {
			b.Fatal(err)
		}
		perIter = res.BaselineSamplesPerIter
	}
	b.ReportMetric(perIter, "baseline-samples/iter")
}

// BenchmarkShortcutStudy regenerates the §IV-C shortcut ambiguity study.
func BenchmarkShortcutStudy(b *testing.B) {
	w := sharedWorkbench(b)
	var visible, placed float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := w.StudyShortcuts()
		if err != nil {
			b.Fatal(err)
		}
		visible = float64(res.RawShortcuts)
		placed = float64(res.HeuristicCorrect)
	}
	b.ReportMetric(visible, "channel-visible-shortcuts")
	b.ReportMetric(placed, "heuristic-correct")
}

// BenchmarkRNNStudy regenerates the §VI limitation-6 study.
func BenchmarkRNNStudy(b *testing.B) {
	w := sharedWorkbench(b)
	var acc float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := w.StudyRNN()
		if err != nil {
			b.Fatal(err)
		}
		acc = res.LayerAcc
	}
	b.ReportMetric(acc*100, "rnn-layer-acc-%")
}

// BenchmarkMultiTenant regenerates the §VI limitation-5 study.
func BenchmarkMultiTenant(b *testing.B) {
	w := sharedWorkbench(b)
	var two, four float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := w.MultiTenant()
		if err != nil {
			b.Fatal(err)
		}
		two, four = res.TwoTenantAcc, res.FourTenantAcc
	}
	b.ReportMetric(two*100, "two-tenant-acc-%")
	b.ReportMetric(four*100, "four-tenant-acc-%")
}

// BenchmarkAblationCounterGroups regenerates the §IV counter-selection
// ablation.
func BenchmarkAblationCounterGroups(b *testing.B) {
	sc := benchScale()
	var full, one float64
	for i := 0; i < b.N; i++ {
		res, err := eval.AblationCounterGroups(sc)
		if err != nil {
			b.Fatal(err)
		}
		full, one = res.FullAcc, res.OneGroupAcc
	}
	b.ReportMetric(full*100, "all-groups-acc-%")
	b.ReportMetric(one*100, "one-group-acc-%")
}

// BenchmarkLSTMTraining measures the inference-model substrate's training
// throughput (sequences x epochs per op).
func BenchmarkLSTMTraining(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	var seqs []lstm.Sequence
	for i := 0; i < 6; i++ {
		in := make([][]float64, 40)
		labels := make([]int, 40)
		for t := range in {
			v := make([]float64, attack.FeatureDim)
			for j := range v {
				v[j] = rng.Float64()
			}
			in[t] = v
			labels[t] = rng.Intn(4)
		}
		seqs = append(seqs, lstm.Sequence{Inputs: in, Labels: labels})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net, err := lstm.New(lstm.Config{
			InputDim: attack.FeatureDim, Hidden: 40, Classes: 4, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := net.Train(seqs, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGBDTTraining measures the Mgap substrate's training throughput.
func BenchmarkGBDTTraining(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	var x [][]float64
	var y []int
	for i := 0; i < 500; i++ {
		row := make([]float64, attack.FeatureDim)
		for j := range row {
			row[j] = rng.Float64()
		}
		x = append(x, row)
		if row[0]+row[3] > 1 {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gbdt.Train(x, y, gbdt.Config{Rounds: 30}); err != nil {
			b.Fatal(err)
		}
	}
}
