package attack

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"leakydnn/internal/cupti"
	"leakydnn/internal/gbdt"
	"leakydnn/internal/lstm"
)

// saveBytes serializes a minimal (untrained) model set: the envelope and
// checksum logic is identical for trained sets, which TestEndToEndExtraction
// round-trips separately.
func saveBytes(t *testing.T) []byte {
	t.Helper()
	m := &Models{Cfg: FastConfig(), Report: map[string]float64{"Mlong": 0.5}}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestModelSetRoundTrip(t *testing.T) {
	raw := saveBytes(t)
	m, err := LoadModels(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if m.Report["Mlong"] != 0.5 {
		t.Fatalf("report lost in round trip: %v", m.Report)
	}
	if m.Cfg.THGap != FastConfig().THGap {
		t.Fatalf("config lost in round trip: %+v", m.Cfg)
	}
}

// A bit-flipped cached model set must be detected by the payload checksum and
// reported as corruption — gob alone happily decodes many single-bit flips of
// numeric fields into a model set with silently wrong weights.
func TestModelSetBitFlipDetected(t *testing.T) {
	raw := saveBytes(t)
	headerLen := len(modelsMagic) + 8 + 32
	for _, pos := range []int{headerLen, headerLen + 7, len(raw) - 1} {
		flipped := append([]byte{}, raw...)
		flipped[pos] ^= 0x01
		_, err := LoadModels(bytes.NewReader(flipped))
		if !errors.Is(err, ErrModelSetCorrupt) {
			t.Fatalf("bit flip at payload byte %d: err = %v, want ErrModelSetCorrupt", pos, err)
		}
	}
	// A flip inside the stored checksum itself is also a mismatch.
	flipped := append([]byte{}, raw...)
	flipped[len(modelsMagic)+8] ^= 0x80
	if _, err := LoadModels(bytes.NewReader(flipped)); !errors.Is(err, ErrModelSetCorrupt) {
		t.Fatalf("checksum flip: err = %v, want ErrModelSetCorrupt", err)
	}
}

func TestModelSetTruncationAndWrongMagic(t *testing.T) {
	raw := saveBytes(t)
	for _, cut := range []int{0, 4, len(modelsMagic) + 3, len(raw) / 2, len(raw) - 1} {
		if _, err := LoadModels(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(raw))
		}
	}
	wrong := append([]byte{}, raw...)
	wrong[0] ^= 0xff
	if _, err := LoadModels(bytes.NewReader(wrong)); err == nil {
		t.Fatal("wrong magic accepted")
	}
}

// envelope wraps a gob payload in the MOSMDLS envelope Save writes: magic,
// little-endian length, SHA-256 of the payload, payload.
func envelope(payload []byte) []byte {
	var raw bytes.Buffer
	raw.WriteString(modelsMagic)
	binary.Write(&raw, binary.LittleEndian, uint64(len(payload)))
	sum := sha256.Sum256(payload)
	raw.Write(sum[:])
	raw.Write(payload)
	return raw.Bytes()
}

// Two saves of one model set are byte-identical, whatever order the Report
// map iterates in: the report is written sorted by key.
func TestModelSetSaveDeterministic(t *testing.T) {
	m := &Models{Cfg: FastConfig(), Report: map[string]float64{}}
	for i := range 32 {
		m.Report[fmt.Sprintf("metric%02d", i)] = float64(i) / 7
	}
	var first bytes.Buffer
	if err := m.Save(&first); err != nil {
		t.Fatal(err)
	}
	for i := range 8 {
		var again bytes.Buffer
		if err := m.Save(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), first.Bytes()) {
			t.Fatalf("save %d differs from the first (%d vs %d bytes)", i+1, again.Len(), first.Len())
		}
	}
}

// reportMapEraModelsSnapshot is the model-set snapshot as it stood while
// Save gob-encoded Report as a map (in map iteration order).
type reportMapEraModelsSnapshot struct {
	Cfg                       Config
	ScalerMin, ScalerMax      []float64
	Gap, Long, VLong, Op, VOp []byte
	HP                        [NumHPKinds][]byte
	HPVocab                   [NumHPKinds][]int
	MajorityLong, MajorityOp  bool
	Report                    map[string]float64
}

// A model set saved with its report as a map, before the sorted form, still
// loads: every head predicts what the current save of the same set
// predicts, and the map-form report, which only mosconsim printed, is
// dropped.
func TestLoadModelsReportMapEra(t *testing.T) {
	m, inputs, want := headsModelSet(t)
	var cur bytes.Buffer
	if err := m.Save(&cur); err != nil {
		t.Fatal(err)
	}
	old := regob(t, cur.Bytes()[len(modelsMagic)+8+32:], func(s *reportMapEraModelsSnapshot) {
		s.Report = map[string]float64{"Mlong": 0.5, "Mop": 0.25, "Vlong": 0.75}
	})
	got, err := LoadModels(bytes.NewReader(envelope(old)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Report) != 0 {
		t.Fatalf("map-era report loaded as %v, want none", got.Report)
	}
	assertHeadsPredict(t, "map era", got, inputs, want)
}

// The precisionEra types copy the attack and lstm snapshot types as they
// stood while attack.Config and lstm.Config carried a Precision field
// (0 = fp64, 1 = fp32). Model sets in mosconsd's on-disk cache still hold it.
type precisionEraConfig struct {
	THGap                                      int
	RMin, RMax                                 float64
	VoteIterations                             int
	LongHidden, OpHidden, VoteHidden, HPHidden int
	Epochs                                     int
	LearningRate, MinorClassBoost              float64
	Gap                                        gbdt.Config
	Seed                                       int64
	Batch, Workers                             int
	Precision                                  int
}

type precisionEraModelsSnapshot struct {
	Cfg                       precisionEraConfig
	ScalerMin, ScalerMax      []float64
	Gap, Long, VLong, Op, VOp []byte
	HP                        [NumHPKinds][]byte
	HPVocab                   [NumHPKinds][]int
	MajorityLong, MajorityOp  bool
	Report                    map[string]float64
}

type precisionEraLSTMConfig struct {
	InputDim, Hidden, Classes int
	LearningRate, ClipAbs     float64
	ClassWeights              []float64
	Seed                      int64
	Batch, Workers            int
	Precision                 int
}

type precisionEraLSTMSnapshot struct {
	Cfg               precisionEraLSTMConfig
	Wx, Wh, Wy, B, By []float64
	TrainedEpochs     int64
}

// regob decodes a gob value into dst's type, lets edit change it, and
// re-encodes it.
func regob[T any](t testing.TB, blob []byte, edit func(*T)) []byte {
	t.Helper()
	var v T
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&v); err != nil {
		t.Fatal(err)
	}
	edit(&v)
	var out bytes.Buffer
	if err := gob.NewEncoder(&out).Encode(v); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// headsModelSet is a model set whose LSTM heads are trained briefly, with
// inputs for them and each head's predictions on those inputs.
func headsModelSet(t *testing.T) (*Models, [][][]float64, [][][]int) {
	t.Helper()
	rng := rand.New(rand.NewSource(4))
	seqs := make([]lstm.Sequence, 4)
	inputs := make([][][]float64, len(seqs))
	for i := range seqs {
		in := make([][]float64, 3+i)
		labels := make([]int, len(in))
		for ts := range in {
			in[ts] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
			labels[ts] = rng.Intn(4)
		}
		seqs[i] = lstm.Sequence{Inputs: in, Labels: labels}
		inputs[i] = in
	}
	net := func(seed int64) *lstm.Network {
		n, err := lstm.New(lstm.Config{InputDim: 3, Hidden: 5, Classes: 4, Seed: seed, Batch: 2})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.Train(seqs, 1); err != nil {
			t.Fatal(err)
		}
		return n
	}
	m := &Models{Cfg: FastConfig(), Long: net(1), VLong: net(2), Op: net(3), VOp: net(4)}
	for k := range m.HP {
		m.HP[k] = net(int64(10 + k))
	}
	m.Cfg.Batch = 2
	var want [][][]int
	for _, n := range modelHeads(m) {
		p, err := n.PredictBatch(inputs)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, p)
	}
	return m, inputs, want
}

func modelHeads(m *Models) []*lstm.Network {
	return append([]*lstm.Network{m.Long, m.VLong, m.Op, m.VOp}, m.HP[:]...)
}

// assertHeadsPredict checks that every LSTM head of m predicts want on inputs.
func assertHeadsPredict(t *testing.T, label string, m *Models, inputs [][][]float64, want [][][]int) {
	t.Helper()
	for h, n := range modelHeads(m) {
		p, err := n.PredictBatch(inputs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p, want[h]) {
			t.Fatalf("%s: head %d predicts %v, want %v", label, h, p, want[h])
		}
	}
}

// A model set saved while the configs had a Precision field must load, with
// every head predicting what the same set saved without the field predicts,
// and re-save to the current bytes.
func TestLoadModelsPrecisionEra(t *testing.T) {
	m, inputs, want := headsModelSet(t)
	var cur bytes.Buffer
	if err := m.Save(&cur); err != nil {
		t.Fatal(err)
	}
	for _, precision := range []int{0, 1} {
		toEra := func(blob []byte) []byte {
			return regob(t, blob, func(s *precisionEraLSTMSnapshot) { s.Cfg.Precision = precision })
		}
		payload := cur.Bytes()[len(modelsMagic)+8+32:]
		old := regob(t, payload, func(s *precisionEraModelsSnapshot) {
			s.Cfg.Precision = precision
			s.Long, s.VLong, s.Op, s.VOp = toEra(s.Long), toEra(s.VLong), toEra(s.Op), toEra(s.VOp)
			for k := range s.HP {
				s.HP[k] = toEra(s.HP[k])
			}
		})

		got, err := LoadModels(bytes.NewReader(envelope(old)))
		if err != nil {
			t.Fatalf("precision %d: %v", precision, err)
		}
		assertHeadsPredict(t, fmt.Sprintf("precision %d", precision), got, inputs, want)
		var again bytes.Buffer
		if err := got.Save(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), cur.Bytes()) {
			t.Fatalf("precision %d: loaded model set re-saves to different bytes", precision)
		}
	}
}

// TestTrainModelsCtxCancelled pins the service-side wiring: a context that is
// already dead stops training before any model head starts.
func TestTrainModelsCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	profiled := collectAll(t, profiledModels()[:1], 3, 60)
	_, err := TrainModelsCtx(ctx, profiled, FastConfig())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestExtractCtxCancelled: a dead client's context aborts the pipeline at the
// first stage boundary, before any model runs.
func TestExtractCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := &Models{
		Cfg:    FastConfig(),
		Scaler: &gbdt.MinMaxScaler{Min: []float64{0}, Max: []float64{1}},
		Long:   &lstm.Network{},
		Op:     &lstm.Network{},
	}
	_, err := m.extractSegmented(ctx, []cupti.Sample{{}}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
