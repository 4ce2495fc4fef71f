package lstm

import (
	"math/rand"

	"leakydnn/internal/wire"
)

// Walk walks the network in wire order: its config, the Train epochs it
// has run, and the view the forward pass reads (the transposed weight
// matrices, then the biases) as count-prefixed float64 runs. Optimizer state
// is not kept: a decoded network is for inference or fresh fine-tuning. A
// decode fills a zero Network; a config New would reject, or a run whose
// length the config does not give, fails it.
func (n *Network) Walk(c *wire.Codec) {
	cfg := &n.cfg
	c.Int(&cfg.InputDim)
	c.Int(&cfg.Hidden)
	c.Int(&cfg.Classes)
	c.Float(&cfg.LearningRate)
	c.Float(&cfg.ClipAbs)
	c.Floats(&cfg.ClassWeights, "class weight")
	c.Int64(&cfg.Seed)
	c.Int(&cfg.Batch)
	c.Int64(&n.trainedEpochs)
	if c.Decoding() {
		if err := cfg.defaults(); err != nil {
			c.Fail(err.Error())
			return
		}
		n.w = new(weights)
	}
	w := n.w
	for _, run := range [...]*[]float64{&w.wxT, &w.whT, &w.wyT, &w.b, &w.by} {
		c.Floats(run, "weight")
	}
	if !c.Decoding() {
		return
	}
	h, in, k := cfg.Hidden, cfg.InputDim, cfg.Classes
	if len(w.wxT) != in*4*h || len(w.whT) != h*4*h || len(w.wyT) != h*k || len(w.b) != 4*h || len(w.by) != k {
		c.Fail("lstm: parameter sizes inconsistent with config")
		return
	}
	// A freshly-initialized network that never trained resumes on cfg.Seed's
	// stream, exactly as New would. A trained network must NOT: its original
	// run already consumed that stream's opening shuffles, and reseeding from
	// cfg.Seed would make fine-tuning replay epoch 0's permutations. Deriving
	// the resume seed from (seed, epochs trained) gives every save point its
	// own deterministic, reproducible stream.
	seed := cfg.Seed
	if n.trainedEpochs > 0 {
		seed = resumeSeed(cfg.Seed, n.trainedEpochs)
	}
	n.rng = rand.New(rand.NewSource(seed))
}

// resumeSeed mixes the config seed with the epoch count through a
// splitmix64-style finalizer, so distinct save points map to well-separated
// RNG streams even for adjacent seeds and epoch counts.
func resumeSeed(seed, epochs int64) int64 {
	z := uint64(seed) + uint64(epochs)*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}
