// Package dnn is the TensorFlow-like system-stack substrate: model
// definitions (layers and their hyper-parameters), shape inference, the
// compilation of a model into the per-iteration op sequence a training step
// executes (forward pass, back-propagation, optimizer updates), and the cost
// model that lowers each op to a simulated GPU kernel whose resource
// footprint carries the hyper-parameter information the side channel leaks.
package dnn

import "fmt"

// OpKind identifies one cuDNN-level operation in a training iteration.
type OpKind int

// Forward, backward and optimizer op kinds. The set mirrors the ops the
// paper observes in TensorFlow timelines (§IV-B).
const (
	OpConv2D OpKind = iota + 1
	OpMatMul
	OpBiasAdd
	OpReLU
	OpTanh
	OpSigmoid
	OpMaxPool

	OpConv2DBackpropFilter
	OpConv2DBackpropInput
	OpMatMulGradWeights
	OpMatMulGradInput
	OpBiasAddGrad
	OpReLUGrad
	OpTanhGrad
	OpSigmoidGrad
	OpMaxPoolGrad

	OpApplyGD
	OpApplyAdagrad
	OpApplyAdam

	// OpResidualAdd joins a shortcut connection to the main path (ResNet's
	// element-wise add); OpResidualAddGrad is its backward split.
	OpResidualAdd
	OpResidualAddGrad

	numOpKinds
)

var opNames = map[OpKind]string{
	OpConv2D:               "Conv2D",
	OpMatMul:               "MatMul",
	OpBiasAdd:              "BiasAdd",
	OpReLU:                 "ReLU",
	OpTanh:                 "Tanh",
	OpSigmoid:              "Sigmoid",
	OpMaxPool:              "MaxPool",
	OpConv2DBackpropFilter: "Conv2DBackpropFilter",
	OpConv2DBackpropInput:  "Conv2DBackpropInput",
	OpMatMulGradWeights:    "MatMulGradWeights",
	OpMatMulGradInput:      "MatMulGradInput",
	OpBiasAddGrad:          "BiasAddGrad",
	OpReLUGrad:             "ReLUGrad",
	OpTanhGrad:             "TanhGrad",
	OpSigmoidGrad:          "SigmoidGrad",
	OpMaxPoolGrad:          "MaxPoolGrad",
	OpApplyGD:              "ApplyGradientDescent",
	OpApplyAdagrad:         "ApplyAdagrad",
	OpApplyAdam:            "ApplyAdam",
	OpResidualAdd:          "ResidualAdd",
	OpResidualAddGrad:      "ResidualAddGrad",
}

// String returns the TensorFlow-style op name.
func (k OpKind) String() string {
	if name, ok := opNames[k]; ok {
		return name
	}
	return fmt.Sprintf("dnn.OpKind(%d)", int(k))
}

// LongClass is the coarse class Mlong assigns to a CUPTI sample: the two
// long op families the attack cares most about, everything else, and idle.
type LongClass int

// Mlong classes (paper §IV-B).
const (
	LongNOP LongClass = iota
	LongConv
	LongMatMul
	LongOther

	NumLongClasses
)

// String returns a short label for the class.
func (c LongClass) String() string {
	switch c {
	case LongNOP:
		return "NOP"
	case LongConv:
		return "conv"
	case LongMatMul:
		return "MatMul"
	case LongOther:
		return "OtherOp"
	}
	return fmt.Sprintf("dnn.LongClass(%d)", int(c))
}

// LongClass maps an op kind to its Mlong class.
func (k OpKind) LongClass() LongClass {
	switch k {
	case OpConv2D, OpConv2DBackpropFilter, OpConv2DBackpropInput:
		return LongConv
	case OpMatMul, OpMatMulGradWeights, OpMatMulGradInput:
		return LongMatMul
	default:
		return LongOther
	}
}

// Letter returns the single-letter op label of the paper's Tables VII/IX:
// C=conv, M=MatMul, B=BiasAdd, R=ReLU, P=Pooling, T=Tanh, S=Sigmoid,
// O=optimizer update. Backward ops carry their forward op's letter.
func (k OpKind) Letter() byte {
	switch k {
	case OpConv2D, OpConv2DBackpropFilter, OpConv2DBackpropInput:
		return 'C'
	case OpMatMul, OpMatMulGradWeights, OpMatMulGradInput:
		return 'M'
	case OpBiasAdd, OpBiasAddGrad:
		return 'B'
	case OpReLU, OpReLUGrad:
		return 'R'
	case OpTanh, OpTanhGrad:
		return 'T'
	case OpSigmoid, OpSigmoidGrad:
		return 'S'
	case OpMaxPool, OpMaxPoolGrad:
		return 'P'
	case OpApplyGD, OpApplyAdagrad, OpApplyAdam:
		return 'O'
	case OpResidualAdd, OpResidualAddGrad:
		// A residual add is computationally a second bias-style add: through
		// the side channel it is indistinguishable from BiasAdd, which is
		// why MoSConS cannot observe where shortcuts attach (§IV-C).
		return 'B'
	}
	return '?'
}

// IsOptimizer reports whether the op is a weight-update op.
func (k OpKind) IsOptimizer() bool {
	switch k {
	case OpApplyGD, OpApplyAdagrad, OpApplyAdam:
		return true
	}
	return false
}

// Shape is a feature-map shape; fully-connected activations use H=W=1 with C
// holding the neuron count.
type Shape struct {
	H, W, C int
}

// Elems returns the number of scalars in the shape.
func (s Shape) Elems() int { return s.H * s.W * s.C }

func (s Shape) String() string { return fmt.Sprintf("%dx%dx%d", s.H, s.W, s.C) }

// Op is one compiled operation of a training iteration, annotated with the
// ground truth the attack tries to recover.
type Op struct {
	Kind OpKind
	// Seq is the op's position within the iteration.
	Seq int
	// Layer is the index of the owning layer, or -1 for optimizer ops.
	Layer int
	// In and Out are the activation shapes the op transforms.
	In, Out Shape
	// Batch is the mini-batch size.
	Batch int
	// Params is the number of weights the op touches (conv filters, FC
	// weight matrices, optimizer state).
	Params int

	// Hyper-parameters of the owning layer, for ground-truth labelling.
	FilterSize, NumFilters, Stride, Neurons int

	// Cost-model outputs (filled by Compile).
	FLOPs, ReadBytes, WriteBytes, TexBytes, WorkingSetBytes float64
}

func (o Op) String() string {
	return fmt.Sprintf("#%d %s layer=%d %s->%s", o.Seq, o.Kind, o.Layer, o.In, o.Out)
}
