package attack

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"leakydnn/internal/gbdt"
	"leakydnn/internal/lstm"
	"leakydnn/internal/wire"
)

// FuzzLoadModels feeds arbitrary payloads to LoadModels inside a valid
// MOSMDLS envelope (right length, right SHA-256), so every input gets past
// the checksum and reaches the model-set walk and the LSTM and GBDT walks
// behind it. Any input must come back as a model set or an error, never a
// panic, and must not allocate more than its own size allows — a hostile
// count or dimension costs what the bytes carry, not what they claim. A set
// that loads must save and load again.
func FuzzLoadModels(f *testing.F) {
	payload := func(m *Models) []byte {
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()[envelopeBytes:]
	}
	walked := func(walk func(*wire.Codec)) []byte {
		c := wire.NewEncoder(nil)
		walk(c)
		return c.Bytes()
	}
	ints := func(vs ...int) []byte {
		return walked(func(c *wire.Codec) {
			for _, v := range vs {
				c.Int(&v)
			}
		})
	}
	// swap replaces the first old in p, a part's own walk, with hostile.
	swap := func(p, old, hostile []byte) []byte {
		i := bytes.Index(p, old)
		if i < 0 {
			f.Fatal("part not found in the payload")
		}
		return bytes.Join([][]byte{p[:i], hostile, p[i+len(old):]}, nil)
	}
	net, err := lstm.New(lstm.Config{InputDim: 2, Hidden: 2, Classes: 2, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	gap, err := gbdt.Train([][]float64{{0}, {1}, {2}, {3}}, []int{0, 0, 1, 1}, gbdt.Config{Rounds: 2, MaxDepth: 2, MinLeaf: 1})
	if err != nil {
		f.Fatal(err)
	}
	full := &Models{Cfg: FastConfig(), Gap: gap, Long: net, VLong: net, Op: net, VOp: net,
		Scaler: &gbdt.MinMaxScaler{Min: []float64{0}, Max: []float64{1}},
		Report: map[string]float64{"Mlong": 0.5, "Mop": 0.25}}
	full.HP[HPNeurons] = net
	full.HPVocab[HPNeurons] = []int{16, 32}
	good := payload(full)
	f.Add(good)
	f.Add(payload(&Models{Cfg: FastConfig()}))
	f.Add([]byte{})
	netBytes := walked(net.Walk)
	// An Mlong whose dims wrap 4*h*in.
	f.Add(swap(good, netBytes, append(ints(1<<31, 1<<31, 4), netBytes[len(ints(2, 2, 2)):]...)))
	// An Mgap whose tree splits below its MaxDepth.
	gapBytes := walked(gap.Walk)
	f.Add(swap(good, gapBytes, append(ints(2, 0), gapBytes[len(ints(2, 2)):]...)))
	// A scaler whose float run claims more floats than the payload holds.
	scaler := walked(func(c *wire.Codec) { walkScaler(full.Scaler, c) })
	f.Add(swap(good, scaler, append(binary.AppendUvarint(nil, 1<<40), scaler...)))
	f.Add(good[:len(good)/2])
	f.Fuzz(func(t *testing.T, payload []byte) {
		raw := envelope(payload)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := LoadModels(bytes.NewReader(raw))
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, loadAllocLimit(len(raw)); grew > limit {
			t.Fatalf("loading a %d-byte envelope allocated %d bytes, limit %d", len(raw), grew, limit)
		}
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := m.Save(&again); err != nil {
			t.Fatalf("a loaded set does not save: %v", err)
		}
		if _, err := LoadModels(&again); err != nil {
			t.Fatalf("a loaded set's save does not load: %v", err)
		}
	})
}

// loadAllocLimit bounds what LoadModels may allocate for an n-byte envelope:
// a fixed allowance for the nine heads' shuffle RNGs (~5 KB each) and the
// read buffers, and a multiple of the input for what the bytes carry. A
// float64 or an int costs its own size and can take one byte on the wire,
// and a tree node takes 48 bytes of memory for 9 on the wire.
func loadAllocLimit(n int) uint64 { return 128<<10 + 16*uint64(n) }
