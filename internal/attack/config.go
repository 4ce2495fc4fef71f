// Package attack implements MoSConS, the paper's model-extraction pipeline:
// the Mgap iteration splitter (gradient-boosted trees over MinMax-scaled
// counters), the Mlong/Mop/Mhp LSTM inference models, the Vlong/Vop voting
// models that merge predictions across training iterations, op collapsing,
// layer derivation and DNN-syntax correction. Models are trained on traces
// of the adversary's profiled models and applied to traces of the victim.
package attack

import (
	"fmt"

	"leakydnn/internal/gbdt"
	"leakydnn/internal/par"
)

// Config holds every attack hyper-parameter, with the paper's values as
// defaults (§V-A) and reduced model sizes available for fast runs.
type Config struct {
	// THGap is the minimum run of consecutive NOP samples that separates two
	// iterations (paper: 6).
	THGap int
	// RMin and RMax bound a valid iteration's sample count relative to the
	// average (paper: 0.8 and 1.2).
	RMin, RMax float64
	// VoteIterations is how many detected iterations feed the voting models
	// (paper: 5).
	VoteIterations int

	// LongHidden, OpHidden, VoteHidden and HPHidden size the LSTMs
	// (paper Table III: 256/256/256/128).
	LongHidden int
	OpHidden   int
	VoteHidden int
	HPHidden   int

	// Epochs trains every LSTM for this many passes.
	Epochs int
	// LearningRate for every LSTM.
	LearningRate float64
	// MinorClassBoost is the weighted-softmax amplification applied to
	// non-conv classes in Mlong to compensate for the sample imbalance the
	// paper describes.
	MinorClassBoost float64

	// Gap configures the Mgap gradient-boosted classifier.
	Gap gbdt.Config

	// Seed drives every model's initialization and shuffling.
	Seed int64

	// Batch is the LSTM minibatch size: each optimizer step averages the
	// gradients of this many sequences. 0 defaults to 1, which reproduces the
	// historical per-sequence update schedule bit for bit.
	Batch int
	// Workers bounds the concurrency of training: how many independent
	// model heads train at once, each on one goroutine. Any value produces
	// byte-identical models; 1 trains serially, <= 0 selects
	// runtime.GOMAXPROCS.
	Workers int

	// pool, when set via WithPool, makes the head-level training fan-out draw
	// its execution slots from a budget shared with the caller's other
	// fan-outs (trace collection, typically) instead of a private Workers
	// pool. Unexported so serialized model sets never carry a live pool.
	pool *par.Pool
}

// WithPool returns a copy of c whose head-level training fan-out shares the
// execution-slot budget p with the caller's other fan-outs, so an overlapped
// pipeline stays bounded by one concurrency knob. The pool only schedules:
// trained models are byte-identical with or without it. A nil p restores the
// private Workers pool.
func (c Config) WithPool(p *par.Pool) Config {
	c.pool = p
	return c
}

// DefaultConfig returns the paper's attack parameters.
func DefaultConfig() Config {
	return Config{
		THGap:           6,
		RMin:            0.8,
		RMax:            1.2,
		VoteIterations:  5,
		LongHidden:      256,
		OpHidden:        256,
		VoteHidden:      256,
		HPHidden:        128,
		Epochs:          30,
		LearningRate:    5e-3,
		MinorClassBoost: 3,
		Gap:             gbdt.Config{Rounds: 60, MaxDepth: 5},
		Seed:            1,
	}
}

// FastConfig returns a reduced configuration for unit tests and quick demos:
// the same pipeline with smaller LSTMs and fewer epochs.
func FastConfig() Config {
	cfg := DefaultConfig()
	cfg.THGap = 2
	cfg.LongHidden = 40
	cfg.OpHidden = 40
	cfg.VoteHidden = 24
	cfg.HPHidden = 16
	cfg.Epochs = 40
	cfg.LearningRate = 8e-3
	cfg.Gap = gbdt.Config{Rounds: 25, MaxDepth: 4}
	return cfg
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.THGap < 1:
		return fmt.Errorf("attack: THGap must be >= 1, got %d", c.THGap)
	case c.RMin <= 0 || c.RMax < c.RMin:
		return fmt.Errorf("attack: invalid iteration ratio bounds [%v, %v]", c.RMin, c.RMax)
	case c.VoteIterations < 1:
		return fmt.Errorf("attack: VoteIterations must be >= 1, got %d", c.VoteIterations)
	case c.LongHidden < 1 || c.OpHidden < 1 || c.VoteHidden < 1 || c.HPHidden < 1:
		return fmt.Errorf("attack: LSTM hidden sizes must be positive")
	case c.Epochs < 1:
		return fmt.Errorf("attack: Epochs must be >= 1, got %d", c.Epochs)
	case c.MinorClassBoost < 1:
		return fmt.Errorf("attack: MinorClassBoost must be >= 1, got %v", c.MinorClassBoost)
	case c.Batch < 0:
		return fmt.Errorf("attack: negative batch size %d", c.Batch)
	}
	return nil
}
