package eval

import (
	"context"
	"fmt"
	"strings"

	"leakydnn/internal/attack"
	"leakydnn/internal/dnn"
	"leakydnn/internal/par"
)

// HPValueSets returns the hyper-parameter values swept for Table VIII at the
// given scale. The paper sweeps filter sizes 1..13, filter counts 64..4096,
// neurons 64..16384, strides 1..4 and three optimizers on ImageNet-size
// models; scaled runs use the proportional small sets.
func HPValueSets(sc Scale) map[attack.HPKind][]int {
	if sc.TimeScale >= 0.5 {
		return map[attack.HPKind][]int{
			attack.HPFilterSize: {1, 3, 5, 7, 9, 11, 13},
			attack.HPNumFilters: {64, 128, 256, 512, 1024, 2048, 4096},
			attack.HPNeurons:    {64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384},
			attack.HPStride:     {1, 2, 3, 4},
			attack.HPOptimizer:  {int(dnn.OptimizerGD), int(dnn.OptimizerAdagrad), int(dnn.OptimizerAdam)},
		}
	}
	return map[attack.HPKind][]int{
		attack.HPFilterSize: {1, 3, 5, 7},
		attack.HPNumFilters: {16, 32, 64, 128},
		attack.HPNeurons:    {32, 64, 128, 256},
		attack.HPStride:     {1, 2, 3, 4},
		attack.HPOptimizer:  {int(dnn.OptimizerGD), int(dnn.OptimizerAdagrad), int(dnn.OptimizerAdam)},
	}
}

// hpVariantModels builds one model per value of each swept kind, mutating a
// conv+fc base so every vocabulary entry appears in the profiling set.
func hpVariantModels(sc Scale, kinds []attack.HPKind) []dnn.Model {
	if len(sc.Profiled) == 0 {
		return nil
	}
	base := sc.Profiled[0]
	sets := HPValueSets(sc)
	mk := func(name string, mutate func(*dnn.Model)) dnn.Model {
		m := dnn.Model{
			Name:  name,
			Input: base.Input,
			Batch: base.Batch,
			Layers: []dnn.Layer{
				dnn.Conv(3, 32, 1, dnn.ActReLU),
				dnn.MaxPool(),
				dnn.FC(64, dnn.ActSigmoid),
			},
			Optimizer: dnn.OptimizerAdam,
		}
		mutate(&m)
		return m
	}

	var out []dnn.Model
	for _, kind := range kinds {
		for _, v := range sets[kind] {
			v := v
			switch kind {
			case attack.HPFilterSize:
				out = append(out, mk(fmt.Sprintf("hp-fsize-%d", v), func(m *dnn.Model) {
					m.Layers[0].FilterSize = v
				}))
			case attack.HPNumFilters:
				out = append(out, mk(fmt.Sprintf("hp-filters-%d", v), func(m *dnn.Model) {
					m.Layers[0].NumFilters = v
				}))
			case attack.HPNeurons:
				out = append(out, mk(fmt.Sprintf("hp-neurons-%d", v), func(m *dnn.Model) {
					m.Layers[2].Neurons = v
				}))
			case attack.HPStride:
				out = append(out, mk(fmt.Sprintf("hp-stride-%d", v), func(m *dnn.Model) {
					m.Layers[0].Stride = v
				}))
			case attack.HPOptimizer:
				out = append(out, mk(fmt.Sprintf("hp-opt-%d", v), func(m *dnn.Model) {
					m.Optimizer = dnn.OptimizerKind(v)
				}))
			}
		}
	}
	return out
}

// Table8Result reproduces Table VIII: per-kind hyper-parameter prediction
// accuracy.
type Table8Result struct {
	Rows []Table8Row
}

// Table8Row is one hyper-parameter kind's accuracy.
type Table8Row struct {
	Kind           attack.HPKind
	Accuracy       float64
	Correct, Total int
	VocabularySize int
}

// Table8 sweeps the requested hyper-parameter kinds: it profiles one model
// per value, trains MoSConS on those traces, then re-measures each value
// from fresh traces of the same variants — exactly the paper's procedure of
// "varying those hyper-parameters on the profiled and tested models just for
// this evaluation step".
func Table8(sc Scale, kinds []attack.HPKind) (*Table8Result, error) {
	if len(kinds) == 0 {
		kinds = []attack.HPKind{
			attack.HPNumFilters, attack.HPFilterSize, attack.HPNeurons,
			attack.HPStride, attack.HPOptimizer,
		}
	}
	variants := hpVariantModels(sc, kinds)
	if len(variants) == 0 {
		return nil, fmt.Errorf("eval: no hyper-parameter variants at scale %q", sc.Name)
	}
	trainTraces, err := sc.CollectTraces(context.Background(), nil, variants, StreamHPTrain)
	if err != nil {
		return nil, err
	}
	models, err := attack.TrainModels(trainTraces, sc.AttackConfig())
	if err != nil {
		return nil, err
	}
	testTraces, err := sc.CollectTraces(context.Background(), nil, variants, StreamHPTest)
	if err != nil {
		return nil, err
	}

	// Each kind's evaluation is pure inference over the shared trained
	// models, so the kinds fan out across the worker pool.
	rows, err := par.MapCtx(context.Background(), sc.Workers, len(kinds), func(k int) (Table8Row, error) {
		kind := kinds[k]
		var correct, total int
		for _, tr := range testTraces {
			c, t, err := models.EvaluateHP(tr, kind)
			if err != nil {
				return Table8Row{}, err
			}
			correct += c
			total += t
		}
		row := Table8Row{
			Kind:           kind,
			Correct:        correct,
			Total:          total,
			VocabularySize: len(models.HPVocab[kind]),
		}
		if total > 0 {
			row.Accuracy = float64(correct) / float64(total)
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &Table8Result{Rows: rows}, nil
}

// Render prints the table in the paper's layout.
func (r *Table8Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table VIII: hyper-parameter prediction accuracy\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-12s %.1f%% (%d/%d, |vocab|=%d)\n",
			row.Kind, row.Accuracy*100, row.Correct, row.Total, row.VocabularySize)
	}
	return b.String()
}
