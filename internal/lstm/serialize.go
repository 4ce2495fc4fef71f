package lstm

import (
	"encoding/gob"
	"fmt"
	"io"
	"math/rand"
)

// snapshot is the gob-serializable form of a trained network. Optimizer
// state is intentionally dropped: a loaded model is for inference or fresh
// fine-tuning.
type snapshot struct {
	Cfg Config
	Wx  []float64
	Wh  []float64
	Wy  []float64
	B   []float64
	By  []float64
	// TrainedEpochs records how many Train epochs produced these weights, so
	// Load can resume shuffling on a stream the original run never consumed.
	// Old snapshots decode it as zero, which keeps their historical behavior.
	TrainedEpochs int64
}

// Save writes the network's parameters to w.
func (n *Network) Save(w io.Writer) error {
	p := n.masters()
	snap := snapshot{
		Cfg:           n.cfg,
		Wx:            p.wx,
		Wh:            p.wh,
		Wy:            p.wy,
		B:             p.b,
		By:            p.by,
		TrainedEpochs: n.trainedEpochs,
	}
	// Workers is an execution knob, not a model property: dropping it keeps
	// the encoding byte-identical across worker-pool settings.
	snap.Cfg.Workers = 0
	if err := gob.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("lstm: save: %w", err)
	}
	return nil
}

// Load reads a network previously written by Save. The network is built
// directly from the snapshot — no Xavier initialization is drawn only to be
// overwritten, so loading burns no RNG state — and keeps only the view
// prediction reads; the decoded masters are transposed into it and dropped.
func Load(r io.Reader) (*Network, error) {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("lstm: load: %w", err)
	}
	cfg := snap.Cfg
	if err := cfg.defaults(); err != nil {
		return nil, fmt.Errorf("lstm: load: %w", err)
	}
	h, in, c := cfg.Hidden, cfg.InputDim, cfg.Classes
	if len(snap.Wx) != 4*h*in || len(snap.Wh) != 4*h*h || len(snap.Wy) != c*h ||
		len(snap.B) != 4*h || len(snap.By) != c {
		return nil, fmt.Errorf("lstm: load: parameter sizes inconsistent with config")
	}
	// A freshly-initialized network that never trained resumes on cfg.Seed's
	// stream, exactly as New would. A trained network must NOT: its original
	// run already consumed that stream's opening shuffles, and reseeding from
	// cfg.Seed would make fine-tuning replay epoch 0's permutations. Deriving
	// the resume seed from (seed, epochs trained) gives every save point its
	// own deterministic, reproducible stream.
	seed := cfg.Seed
	if snap.TrainedEpochs > 0 {
		seed = resumeSeed(cfg.Seed, snap.TrainedEpochs)
	}
	p := params{wx: snap.Wx, wh: snap.Wh, b: snap.B, wy: snap.Wy, by: snap.By}
	n := &Network{cfg: cfg, rng: rand.New(rand.NewSource(seed)), trainedEpochs: snap.TrainedEpochs}
	n.setWeights(p)
	return n, nil
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
