// Package leakydnn is the public API of the MoSConS reproduction — the
// DSN 2020 paper "Leaky DNN: Stealing Deep-learning Model Secret with GPU
// Context-switching Side-channel" rebuilt as a self-contained Go library.
//
// The package re-exports the stable surface of the internal subsystems:
//
//   - the simulated GPU platform (time-sliced and MPS schedulers, the
//     L2/texture eviction side channel, CUPTI counters);
//   - the TensorFlow-like victim stack (models, layers, per-iteration op
//     compilation, timeline profiling);
//   - the spy program (Conv200 probe, eight-kernel slow-down attack,
//     fixed-period and per-kernel CUPTI sampling);
//   - the MoSConS extraction pipeline (Mgap, Mlong/Vlong, Mop/Vop, Mhp,
//     collapsing, layer derivation, DNN-syntax correction);
//   - the full evaluation harness regenerating every table and figure of
//     the paper, plus the §VI defenses.
//
// Quickstart:
//
//	sc := leakydnn.TinyScale()
//	w, _ := leakydnn.NewWorkbench(sc)
//	rec, _ := w.Models.Extract(w.Tested[0].Samples)
//	fmt.Println(rec.OpSeq)
package leakydnn

import (
	"leakydnn/internal/attack"
	"leakydnn/internal/baseline"
	"leakydnn/internal/chaos"
	"leakydnn/internal/cupti"
	"leakydnn/internal/defense"
	"leakydnn/internal/dnn"
	"leakydnn/internal/eval"
	"leakydnn/internal/gpu"
	"leakydnn/internal/spy"
	"leakydnn/internal/tfsim"
	"leakydnn/internal/trace"
	"leakydnn/internal/workload"
	"leakydnn/internal/zoo"
)

// Victim model definitions (the secrets the attack recovers).
type (
	// Model is a CNN/MLP definition: layers, hyper-parameters, optimizer.
	Model = dnn.Model
	// Layer is one layer with its secret hyper-parameters.
	Layer = dnn.Layer
	// Shape is a feature-map shape.
	Shape = dnn.Shape
	// Activation selects a layer non-linearity.
	Activation = dnn.Activation
	// OptimizerKind selects the training optimizer.
	OptimizerKind = dnn.OptimizerKind
	// Op is one compiled operation of a training iteration.
	Op = dnn.Op
)

// Layer constructors and enum values.
var (
	Conv    = dnn.Conv
	FC      = dnn.FC
	MaxPool = dnn.MaxPool
	RNN     = dnn.RNN
	Compile = dnn.Compile
)

// Activation and optimizer constants.
const (
	ActReLU    = dnn.ActReLU
	ActTanh    = dnn.ActTanh
	ActSigmoid = dnn.ActSigmoid

	OptimizerGD      = dnn.OptimizerGD
	OptimizerAdagrad = dnn.OptimizerAdagrad
	OptimizerAdam    = dnn.OptimizerAdam
)

// Platform: the simulated GPU.
type (
	// DeviceConfig describes the simulated GPU (GTX 1080 Ti-like defaults).
	DeviceConfig = gpu.DeviceConfig
	// Nanos is simulated time in nanoseconds.
	Nanos = gpu.Nanos
)

// DefaultDevice returns the GTX 1080 Ti-like platform configuration.
var DefaultDevice = gpu.DefaultDeviceConfig

// Victim stack.
type (
	// SessionConfig configures a victim training run.
	SessionConfig = tfsim.Config
	// Timeline is the victim-side op profiler (chrome-tracing exportable).
	Timeline = tfsim.Timeline
)

// Spy program.
type (
	// SpyConfig deploys the adversary's CUDA program.
	SpyConfig = spy.Config
	// ProbeKind selects a probe kernel (Table I).
	ProbeKind = spy.Kind
)

// Probe kernels of Table I.
const (
	ProbeVectorAdd = spy.VectorAdd
	ProbeVectorMul = spy.VectorMul
	ProbeMatMul    = spy.MatMul
	ProbeConv100   = spy.Conv100
	ProbeConv200   = spy.Conv200
)

// Tracing: co-running spy and victim.
type (
	// TraceConfig configures one co-run.
	TraceConfig = trace.RunConfig
	// Trace is the aligned outcome: spy samples plus victim ground truth.
	Trace = trace.Trace
	// Sample is one CUPTI reading.
	Sample = cupti.Sample
	// TraceHealth is a co-run's degradation report: per-cause fault
	// accounting and iteration coverage.
	TraceHealth = trace.Health
)

// Fault injection: deterministic measurement-path chaos (dropped/duplicated
// samples, counter jitter, arming failures, preemption gaps, clock skew,
// truncation) and scheduler-side chaos (victim stalls, driver resets, tenant
// churn). Set TraceConfig.Chaos or Scale.Chaos (ChaosPlan.Sched for the
// scheduling layer); the zero plan keeps every run byte-identical to a clean
// collection.
type (
	// ChaosPlan configures the fault injector.
	ChaosPlan = chaos.Plan
	// ChaosStats is the injector's per-cause fault accounting.
	ChaosStats = chaos.Stats
	// SchedChaosPlan perturbs the scheduling layer the side channel rides on.
	SchedChaosPlan = chaos.SchedPlan
	// SchedChaosStats is the scheduler-fault accounting of one co-run.
	SchedChaosStats = chaos.SchedStats
)

// ChaosAt returns the canonical measurement-fault blend at an intensity in
// [0, 1]; SchedChaosAt the canonical scheduler-fault mix.
var (
	ChaosAt      = chaos.At
	SchedChaosAt = chaos.SchedAt
)

// CollectTrace co-runs the spy against a victim model under the time-sliced
// scheduler and returns the aligned trace.
var CollectTrace = trace.Collect

// Streaming trace serialization: WriteTraces streams a collection as
// length-prefixed frames (traces written back to back form one file),
// ReadTraces restores it, whichever wire format version each trace was
// written in; ReadTrace decodes a single trace. Trace.WriteTo serializes one
// trace and implements io.WriterTo.
var (
	WriteTraces = trace.WriteTraces
	ReadTraces  = trace.ReadTraces
	ReadTrace   = trace.ReadTrace
)

// Attack pipeline.
type (
	// AttackConfig holds MoSConS's hyper-parameters.
	AttackConfig = attack.Config
	// AttackModels is the trained inference-model set.
	AttackModels = attack.Models
	// Recovery is an extraction's full output.
	Recovery = attack.Recovery
	// RecoveredLayer is one reconstructed layer.
	RecoveredLayer = attack.RecoveredLayer
)

// Attack construction and metrics.
var (
	// TrainAttack trains the full MoSConS model set on profiled traces.
	TrainAttack = attack.TrainModels
	// LoadAttackModels restores a model set written with AttackModels.Save.
	LoadAttackModels = attack.LoadModels
	// ApplyResNetHeuristic places shortcuts with the §IV-C domain-knowledge
	// rule (the side channel cannot see them).
	ApplyResNetHeuristic = attack.ApplyResNetHeuristic
	// DefaultAttackConfig is the paper's configuration (LSTM-256 etc.).
	DefaultAttackConfig = attack.DefaultConfig
	// FastAttackConfig is a reduced configuration for quick runs.
	FastAttackConfig = attack.FastConfig
	// LayerAccuracy scores a recovery against the true model (Table IX).
	LayerAccuracy = attack.LayerAccuracy
	// LetterAccuracy scores per-sample op letters (Table VII).
	LetterAccuracy = attack.LetterAccuracy
)

// Evaluation harness.
type (
	// Scale fixes an experiment's platform/workload/attack sizes.
	Scale = eval.Scale
	// Workbench couples a trained attack with tested traces.
	Workbench = eval.Workbench
	// RobustnessResult is the accuracy-vs-fault-intensity sweep.
	RobustnessResult = eval.RobustnessResult
	// RobustnessRow aggregates one intensity step of the sweep.
	RobustnessRow = eval.RobustnessRow
)

// Experiment scales and runners.
var (
	TinyScale  = eval.Tiny
	MidScale   = eval.Mid
	PaperScale = eval.Paper

	NewWorkbench = eval.NewWorkbench

	Table1         = eval.Table1
	Table2         = eval.Table2
	FigSampling    = eval.FigSampling
	Table8         = eval.Table8
	SlowdownImpact = eval.SlowdownImpact
	SlowdownSweep  = eval.SlowdownSweep
)

// Model zoo (Tables V and IX).
var (
	ProfiledModels = zoo.ProfiledModels
	TestedModels   = zoo.TestedModels
	VGG16          = zoo.VGG16
	ZFNet          = zoo.ZFNet
	AlexNet        = zoo.AlexNet
	TinyResNet     = zoo.TinyResNet
	TinyRNN        = zoo.TinyRNN
	ScaleModel     = zoo.Scale
)

// Defenses (§VI).
var (
	QuantizeCounters = defense.QuantizeSamples
	NoiseCounters    = defense.NoiseSamples
	HardenScheduler  = defense.HardenScheduler
)

// Synthetic workload (the ImageNet stand-in).
type (
	// Dataset is a deterministic synthetic image dataset.
	Dataset = workload.Dataset
	// Image is one synthetic example.
	Image = workload.Image
)

// SyntheticDataset builds a deterministic image dataset.
var SyntheticDataset = workload.Synthetic

// Baseline: the prior-work MPS co-location attack (CCS'18).
type (
	// BaselineConfig runs the MPS-era attack.
	BaselineConfig = baseline.Config
	// BaselineObservation is its one-sample-per-iteration reading.
	BaselineObservation = baseline.Observation
)

// Baseline helpers.
var (
	CollectBaseline  = baseline.Collect
	TrainNeuronCount = baseline.TrainNeuronCount
)

// CUPTI access control (§II-D).
type Driver = cupti.Driver

// Driver helpers: the paper's driver-downgrade bypass.
var (
	NewDriver              = cupti.NewDriver
	ErrCUPTIRestricted     = cupti.ErrAccessRestricted
	PatchedDriverVersion   = cupti.PatchedDriverVersion
	UnpatchedDriverVersion = cupti.UnpatchedDriverVersion
)
