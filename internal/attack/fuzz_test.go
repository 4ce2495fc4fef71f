package attack

import (
	"bytes"
	"encoding/gob"
	"runtime"
	"testing"

	"leakydnn/internal/gbdt"
	"leakydnn/internal/lstm"
)

// FuzzLoadModels feeds arbitrary payloads to LoadModels inside a valid
// MOSMDLS envelope (right length, right SHA-256), so every input gets past
// the checksum and reaches the decoders behind it: the snapshot's gob, and
// the LSTM and GBDT blobs nested in it. Any input must come back as a model
// set or an error, never a panic, and must not allocate more than its own
// size allows — a hostile length or dimension costs what the bytes carry,
// not what they claim. A set that loads must save and load again.
func FuzzLoadModels(f *testing.F) {
	payload := func(m *Models) []byte {
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()[len(modelsMagic)+8+32:]
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
	f.Add(payload(full))
	f.Add(payload(&Models{Cfg: FastConfig()}))
	f.Add([]byte{})
	f.Add([]byte{0xfc, 0x3f, 0xff, 0xff, 0xff}) // a gob message claiming ~1 GB
	{
		// A snapshot whose LSTM blob claims dims that wrap 4*h*in.
		var blob bytes.Buffer
		if err := gob.NewEncoder(&blob).Encode(struct {
			Cfg lstm.Config
		}{lstm.Config{InputDim: 1 << 31, Hidden: 1 << 31, Classes: 4}}); err != nil {
			f.Fatal(err)
		}
		f.Add(regob(f, payload(full), func(s *modelsSnapshot) { s.Long = blob.Bytes() }))
	}
	{
		// A snapshot whose Mgap tree is its own left child.
		type nodeRec struct{ Feature, Left, Right int }
		var blob bytes.Buffer
		if err := gob.NewEncoder(&blob).Encode(struct {
			Dim   int
			Trees [][]nodeRec
		}{1, [][]nodeRec{{{Feature: 0, Left: 0, Right: 0}}}}); err != nil {
			f.Fatal(err)
		}
		f.Add(regob(f, payload(full), func(s *modelsSnapshot) { s.Gap = blob.Bytes() }))
	}
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

// loadAllocLimit bounds what LoadModels may allocate for an n-byte envelope.
// gob sizes a message from its claimed length, and a slice from its claimed
// element count, up to 10 MB before it reads them, so one hostile length
// costs that much once before the decode fails. That, a fixed allowance for
// gob's per-decoder machinery, and a multiple of the input for what the
// bytes do carry (a float64 or a zero struct can cost one byte on the wire;
// weights are also transposed) bound the rest.
func loadAllocLimit(n int) uint64 { return 10<<20 + 4<<20 + 128*uint64(n) }
