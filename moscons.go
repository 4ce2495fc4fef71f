// Package leakydnn is the public API of the MoSConS reproduction — the
// DSN 2020 paper "Leaky DNN: Stealing Deep-learning Model Secret with GPU
// Context-switching Side-channel" rebuilt as a self-contained Go library.
//
// The package re-exports the small surface the examples drive:
//
//   - the TensorFlow-like victim models (layers, hyper-parameters,
//     per-iteration op compilation) and their synthetic input dataset;
//   - trace collection, co-running the spy with a victim under the
//     time-sliced scheduler;
//   - the MoSConS workbench (profile, train, extract) and its layer-accuracy
//     score;
//   - the slow-down attack experiments, the counter-quantization defense of
//     §VI and the CUPTI driver gate of §II-D.
//
// Everything else lives in the internal packages, which cmd/ and the
// benchmarks use directly.
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
	"leakydnn/internal/cupti"
	"leakydnn/internal/defense"
	"leakydnn/internal/dnn"
	"leakydnn/internal/eval"
	"leakydnn/internal/trace"
	"leakydnn/internal/workload"
)

// Victim model definitions (the secrets the attack recovers).
type (
	// Model is a CNN/MLP definition: layers, hyper-parameters, optimizer.
	Model = dnn.Model
	// Layer is one layer with its secret hyper-parameters.
	Layer = dnn.Layer
)

// Layer constructors and op compilation.
var (
	Conv    = dnn.Conv
	FC      = dnn.FC
	MaxPool = dnn.MaxPool
	Compile = dnn.Compile
)

// Activation and optimizer constants.
const (
	ActReLU       = dnn.ActReLU
	ActSigmoid    = dnn.ActSigmoid
	OptimizerAdam = dnn.OptimizerAdam
)

// SyntheticDataset builds a deterministic image dataset (the ImageNet
// stand-in).
var SyntheticDataset = workload.Synthetic

// CollectTrace co-runs the spy against a victim model under the time-sliced
// scheduler and returns the aligned trace.
var CollectTrace = trace.Collect

// LayerAccuracy scores a recovery against the true model (Table IX).
var LayerAccuracy = attack.LayerAccuracy

// Experiment scale, workbench and the slow-down attack experiments.
var (
	TinyScale      = eval.Tiny
	NewWorkbench   = eval.NewWorkbench
	SlowdownImpact = eval.SlowdownImpact
	SlowdownSweep  = eval.SlowdownSweep
)

// QuantizeCounters is the §VI counter-quantization defense.
var QuantizeCounters = defense.QuantizeSamples

// CUPTI access control (§II-D): the paper's driver-downgrade bypass.
var (
	NewDriver              = cupti.NewDriver
	PatchedDriverVersion   = cupti.PatchedDriverVersion
	UnpatchedDriverVersion = cupti.UnpatchedDriverVersion
)
