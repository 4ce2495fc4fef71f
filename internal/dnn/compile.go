package dnn

import "fmt"

// Compile translates a model into the op sequence one training iteration
// executes on the compute stream: the forward pass, the back-propagation
// pass in reverse layer order, and one optimizer update per trainable
// variable — the same structure the paper observes in TensorFlow timelines.
func Compile(m Model) ([]Op, error) {
	shapes, err := m.Validate()
	if err != nil {
		return nil, err
	}

	bound := 0
	for _, l := range m.Layers {
		bound += l.opBound()
	}
	ops := make([]Op, 0, bound)
	emit := func(o Op) {
		o.Seq = len(ops)
		o.Batch = m.Batch
		o.fillCost(layerOf(m, o.Layer))
		ops = append(ops, o)
	}

	// Forward pass.
	for i, l := range m.Layers {
		in, out := shapes[i], shapes[i+1]
		switch l.Kind {
		case LayerConv:
			emit(Op{Kind: OpConv2D, Layer: i, In: in, Out: out,
				FilterSize: l.FilterSize, NumFilters: l.NumFilters, Stride: l.Stride,
				Params: l.Params(in)})
			emit(Op{Kind: OpBiasAdd, Layer: i, In: out, Out: out, Params: l.Biases()})
		case LayerFC:
			emit(Op{Kind: OpMatMul, Layer: i, In: flat(in), Out: out,
				Neurons: l.Neurons, Params: l.Params(in)})
			emit(Op{Kind: OpBiasAdd, Layer: i, In: out, Out: out, Params: l.Biases()})
		case LayerMaxPool:
			emit(Op{Kind: OpMaxPool, Layer: i, In: in, Out: out})
		case LayerRNN:
			// The recurrent cell unrolls: every step re-runs the same
			// shared-weight MatMul and Tanh, which is exactly why the op
			// sequence no longer maps one-to-one onto layers.
			stepIn := Shape{H: 1, W: 1, C: in.Elems()/l.Steps + l.Neurons}
			for t := 0; t < l.Steps; t++ {
				emit(Op{Kind: OpMatMul, Layer: i, In: stepIn, Out: out,
					Neurons: l.Neurons, Params: l.Params(in)})
				emit(Op{Kind: OpTanh, Layer: i, In: out, Out: out})
			}
		}
		if l.Kind != LayerRNN {
			if act, ok := l.Act.forwardOp(); ok {
				emit(Op{Kind: act, Layer: i, In: out, Out: out})
			}
		}
		if l.ShortcutFrom > 0 {
			emit(Op{Kind: OpResidualAdd, Layer: i, In: out, Out: out})
		}
	}

	// Back-propagation in reverse layer order.
	for i := len(m.Layers) - 1; i >= 0; i-- {
		l := m.Layers[i]
		in, out := shapes[i], shapes[i+1]
		if l.ShortcutFrom > 0 {
			emit(Op{Kind: OpResidualAddGrad, Layer: i, In: out, Out: out})
		}
		if l.Kind != LayerRNN {
			if act, ok := l.Act.backwardOp(); ok {
				emit(Op{Kind: act, Layer: i, In: out, Out: out})
			}
		}
		switch l.Kind {
		case LayerConv:
			emit(Op{Kind: OpBiasAddGrad, Layer: i, In: out, Out: Shape{H: 1, W: 1, C: out.C},
				Params: l.Biases()})
			emit(Op{Kind: OpConv2DBackpropFilter, Layer: i, In: in, Out: out,
				FilterSize: l.FilterSize, NumFilters: l.NumFilters, Stride: l.Stride,
				Params: l.Params(in)})
			if i > 0 {
				emit(Op{Kind: OpConv2DBackpropInput, Layer: i, In: in, Out: out,
					FilterSize: l.FilterSize, NumFilters: l.NumFilters, Stride: l.Stride,
					Params: l.Params(in)})
			}
		case LayerFC:
			emit(Op{Kind: OpBiasAddGrad, Layer: i, In: out, Out: Shape{H: 1, W: 1, C: out.C},
				Params: l.Biases()})
			emit(Op{Kind: OpMatMulGradWeights, Layer: i, In: flat(in), Out: out,
				Neurons: l.Neurons, Params: l.Params(in)})
			if i > 0 {
				emit(Op{Kind: OpMatMulGradInput, Layer: i, In: flat(in), Out: out,
					Neurons: l.Neurons, Params: l.Params(in)})
			}
		case LayerMaxPool:
			emit(Op{Kind: OpMaxPoolGrad, Layer: i, In: in, Out: out})
		case LayerRNN:
			stepIn := Shape{H: 1, W: 1, C: in.Elems()/l.Steps + l.Neurons}
			for t := 0; t < l.Steps; t++ {
				emit(Op{Kind: OpTanhGrad, Layer: i, In: out, Out: out})
				emit(Op{Kind: OpMatMulGradWeights, Layer: i, In: stepIn, Out: out,
					Neurons: l.Neurons, Params: l.Params(in)})
				if i > 0 || t < l.Steps-1 {
					emit(Op{Kind: OpMatMulGradInput, Layer: i, In: stepIn, Out: out,
						Neurons: l.Neurons, Params: l.Params(in)})
				}
			}
		}
	}

	// Optimizer updates: one Apply op per trainable variable (weights and
	// biases of every conv/FC layer).
	apply := m.Optimizer.applyOp()
	for i, l := range m.Layers {
		in := shapes[i]
		if p := l.Params(in); p > 0 {
			emit(Op{Kind: apply, Layer: i, Params: p,
				In: Shape{H: 1, W: 1, C: p}, Out: Shape{H: 1, W: 1, C: p}})
			b := l.Biases()
			emit(Op{Kind: apply, Layer: i, Params: b,
				In: Shape{H: 1, W: 1, C: b}, Out: Shape{H: 1, W: 1, C: b}})
		}
	}

	if len(ops) == 0 {
		return nil, fmt.Errorf("dnn: model %q compiled to zero ops", m.Name)
	}
	return ops, nil
}

// OpSignature returns the iteration's ground-truth letter string (paper
// Table IX row format), e.g. "MBRMBT..." — one letter per op.
func OpSignature(ops []Op) string {
	out := make([]byte, len(ops))
	for i, o := range ops {
		out[i] = o.Kind.Letter()
	}
	return string(out)
}

// opBound is an upper bound on the ops Compile emits for layer l, so the op
// slice is allocated once. Per step an RNN cell emits two forward and at most
// three backward ops; any other layer at most three forward (op, bias,
// activation) and four backward (activation, bias, weight and input
// gradients). Every layer adds at most a residual add, its gradient and two
// optimizer applies.
func (l Layer) opBound() int {
	if l.Kind == LayerRNN {
		return 5*l.Steps + 4
	}
	return 11
}

func flat(s Shape) Shape {
	return Shape{H: 1, W: 1, C: s.Elems()}
}

func layerOf(m Model, idx int) *Layer {
	if idx < 0 || idx >= len(m.Layers) {
		return nil
	}
	return &m.Layers[idx]
}
