package attack

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"leakydnn/internal/cupti"
	"leakydnn/internal/gbdt"
	"leakydnn/internal/lstm"
	"leakydnn/internal/par"
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
// reported as corruption: a flip in a float decodes into a model set with
// silently wrong weights.
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

// envelope wraps a payload in the MOSMDLS envelope Save writes: magic,
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

// A loaded model set predicts, bit for bit, what the saved set predicts,
// and saves again to the same bytes.
func TestLoadModelsPredictsAsSaved(t *testing.T) {
	m, inputs, want := headsModelSet(t)
	gap, err := gbdt.Train([][]float64{{0, 1}, {1, 0}, {2, 1}, {3, 0}, {4, 1}}, []int{0, 0, 1, 1, 1},
		gbdt.Config{Rounds: 3, MaxDepth: 2, MinLeaf: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.Gap = gap
	var saved bytes.Buffer
	if err := m.Save(&saved); err != nil {
		t.Fatal(err)
	}
	got, err := LoadModels(bytes.NewReader(saved.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	assertHeadsPredict(t, "loaded", got, inputs, want)
	for _, x := range [][]float64{{0.5, 1}, {2.5, 0}, {3.5, 1}} {
		p, _ := m.Gap.PredictProb(x)
		q, _ := got.Gap.PredictProb(x)
		if math.Float64bits(p) != math.Float64bits(q) {
			t.Fatalf("Mgap(%v) = %v after loading, %v before", x, q, p)
		}
	}
	var again bytes.Buffer
	if err := got.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), saved.Bytes()) {
		t.Fatal("a loaded model set saves to different bytes")
	}
}

// TestModelSetWalkComplete fills every leaf of a model set with a distinct
// value, round-trips it and compares it with DeepEqual: a field added to
// Models, Config, gbdt.Config or gbdt.MinMaxScaler without a line in the walk
// decodes as zero and fails here. The heads are real networks and a real
// classifier, whose own walks their packages test; here they must re-encode
// to the same bytes. Workers and the pool are execution knobs the walk
// leaves out.
func TestModelSetWalkComplete(t *testing.T) {
	heads, _, _ := headsModelSet(t)
	gap, err := gbdt.Train([][]float64{{0}, {1}, {2}, {3}}, []int{0, 0, 1, 1}, gbdt.Config{Rounds: 2, MaxDepth: 2, MinLeaf: 1})
	if err != nil {
		t.Fatal(err)
	}
	var m Models
	next := 0
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		if !v.CanSet() {
			v = reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
		}
		next++
		switch x := v.Addr().Interface().(type) {
		case **lstm.Network:
			*x = heads.Long
			return
		case **gbdt.Classifier:
			*x = gap
			return
		case **par.Pool:
			return
		}
		switch v.Kind() {
		case reflect.Int, reflect.Int64:
			v.SetInt(int64(next) * 1_000_003)
		case reflect.Float64:
			v.SetFloat(float64(next) + 0.25)
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Pointer:
			v.Set(reflect.New(v.Type().Elem()))
			fill(v.Elem())
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fill(v.Field(i))
			}
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				fill(v.Index(i))
			}
		case reflect.Slice:
			v.Set(reflect.MakeSlice(v.Type(), 2, 2))
			fill(v.Index(0))
			fill(v.Index(1))
		case reflect.Map:
			v.Set(reflect.MakeMap(v.Type()))
			for _, k := range []string{fmt.Sprintf("b-%d", next), fmt.Sprintf("a-%d", next)} {
				e := reflect.New(v.Type().Elem()).Elem()
				fill(e)
				v.SetMapIndex(reflect.ValueOf(k), e)
			}
		default:
			t.Fatalf("no filler for %s (%s)", v.Type(), v.Kind())
		}
	}
	fill(reflect.ValueOf(&m).Elem())
	m.Cfg.Workers = 0
	var saved bytes.Buffer
	if err := m.Save(&saved); err != nil {
		t.Fatal(err)
	}
	got, err := LoadModels(bytes.NewReader(saved.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := got.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), saved.Bytes()) {
		t.Error("re-encoding a loaded model set changed its bytes")
	}
	for _, s := range []*Models{&m, got} {
		s.Gap, s.Long, s.VLong, s.Op, s.VOp, s.HP = nil, nil, nil, nil, nil, [NumHPKinds]*lstm.Network{}
	}
	if !reflect.DeepEqual(got, &m) {
		t.Errorf("round trip lost a field:\n sent %+v\n got  %+v", m, *got)
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
