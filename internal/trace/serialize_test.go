package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"leakydnn/internal/chaos"
	"leakydnn/internal/cupti"
	"leakydnn/internal/dnn"
	"leakydnn/internal/gpu"
	"leakydnn/internal/tfsim"
	"leakydnn/internal/wire"
	"leakydnn/internal/zoo"
)

// A serialized trace must restore bit-identically: samples, metadata, health,
// re-anchor markers, and a timeline whose events point back into the trace's
// own op table.
func TestTraceSerializationRoundTrip(t *testing.T) {
	cfg := fastRun(31, 4, true)
	cfg.Chaos.Sched = chaos.SchedPlan{Resets: 1, TenantJoins: 1}
	orig, err := Collect(zoo.TinyTestedModels()[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := orig.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Samples, orig.Samples) {
		t.Fatal("samples changed across the round trip")
	}
	if !reflect.DeepEqual(got.Model, orig.Model) || !reflect.DeepEqual(got.Ops, orig.Ops) {
		t.Fatal("model/ops changed across the round trip")
	}
	if got.VictimWall != orig.VictimWall || got.SpyProbeLaunches != orig.SpyProbeLaunches ||
		got.SpyChannelsRejected != orig.SpyChannelsRejected {
		t.Fatal("run counters changed across the round trip")
	}
	if !reflect.DeepEqual(got.Reanchors, orig.Reanchors) {
		t.Fatalf("re-anchor markers changed: %v vs %v", got.Reanchors, orig.Reanchors)
	}
	if !reflect.DeepEqual(got.Health, orig.Health) {
		t.Fatalf("health changed across the round trip:\n%+v\n%+v", got.Health, orig.Health)
	}
	ge, oe := got.Timeline.Events(), orig.Timeline.Events()
	if len(ge) != len(oe) {
		t.Fatalf("timeline has %d events, want %d", len(ge), len(oe))
	}
	for i := range ge {
		if ge[i].Name != oe[i].Name || ge[i].Start != oe[i].Start || ge[i].End != oe[i].End ||
			ge[i].Iteration != oe[i].Iteration {
			t.Fatalf("event %d differs: %+v vs %+v", i, ge[i], oe[i])
		}
		if ge[i].Op == nil || *ge[i].Op != *oe[i].Op {
			t.Fatalf("event %d op differs", i)
		}
		// The restored pointer must index the restored trace's own op table,
		// preserving the identity Labels() and WriteTo depend on.
		if ge[i].Op != &got.Ops[ge[i].Op.Seq] {
			t.Fatalf("event %d op pointer does not point into the restored op table", i)
		}
	}
	// Labels (the alignment consumers actually use) must agree exactly.
	if !reflect.DeepEqual(stripOpPointers(got.Labels()), stripOpPointers(orig.Labels())) {
		t.Fatal("labels changed across the round trip")
	}
}

func stripOpPointers(labels []Label) []Label {
	out := append([]Label(nil), labels...)
	for i := range out {
		out[i].Op = nil
	}
	return out
}

// Traces written back to back must read back as a collection, and the stream
// must be consumable incrementally.
func TestMultiTraceStreamRoundTrip(t *testing.T) {
	var traces []*Trace
	var buf bytes.Buffer
	for i, m := range zoo.TinyTestedModels()[:2] {
		tr, err := Collect(m, fastRun(int64(50+i), 3, true))
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, tr)
	}
	if err := WriteTraces(&buf, traces); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTraces(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(traces) {
		t.Fatalf("read %d traces, wrote %d", len(got), len(traces))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i].Samples, traces[i].Samples) {
			t.Fatalf("trace %d samples changed", i)
		}
		if got[i].Model.Name != traces[i].Model.Name {
			t.Fatalf("trace %d model changed", i)
		}
	}
}

// Corrupt and truncated streams must fail with a story, never a panic or a
// silently partial trace.
func TestSerializationRejectsDamage(t *testing.T) {
	tr, err := Collect(zoo.TinyTestedModels()[0], fastRun(60, 3, false))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	if _, err := ReadTrace(bytes.NewReader([]byte("not a trace file"))); err == nil {
		t.Fatal("garbage accepted as a trace")
	}
	for _, frac := range []float64{0.3, 0.7, 0.95} {
		cut := int(float64(len(full)) * frac)
		if _, err := ReadTrace(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d bytes accepted", cut, len(full))
		}
	}
	// An empty stream is a legal empty collection, but not a legal trace.
	if got, err := ReadTraces(bytes.NewReader(nil)); err != nil || len(got) != 0 {
		t.Fatalf("empty stream: got %d traces, err %v", len(got), err)
	}
	if _, err := ReadTrace(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream accepted as a single trace")
	}
}

// wireGoldenTrace is a fixed small trace touching every part of the wire
// format: model and op table, samples with zero and non-zero counters, a
// timeline whose events do and do not point into the op table, re-anchor
// markers and a Health report.
func wireGoldenTrace() *Trace {
	tr := &Trace{
		Model: dnn.Model{
			Name:      "wire-golden",
			Input:     dnn.Shape{H: 8, W: 8, C: 1},
			Batch:     4,
			Layers:    []dnn.Layer{{Kind: dnn.LayerFC, Neurons: 16}},
			Optimizer: dnn.OptimizerGD,
		},
		Ops: []dnn.Op{
			{Kind: dnn.OpMatMul, Seq: 0, Layer: 0, In: dnn.Shape{H: 1, W: 64, C: 1}, Out: dnn.Shape{H: 1, W: 16, C: 1},
				Batch: 4, Params: 1024, Neurons: 16, FLOPs: 8192, ReadBytes: 4352, WriteBytes: 256},
			{Kind: dnn.OpApplyGD, Seq: 1, Layer: -1, Batch: 4, Params: 1024, FLOPs: 2048, ReadBytes: 8192, WriteBytes: 4096},
		},
		VictimWall:          12_345,
		SpyProbeLaunches:    7,
		SpyChannelsRejected: 1,
		SchedSlices:         42,
		Reanchors:           []gpu.Nanos{6_000},
		Health: &Health{
			SamplesEmitted:        4,
			SamplesDelivered:      3,
			Reanchors:             1,
			SpyChannelsRejected:   1,
			IterationsTotal:       2,
			IterationsProcessed:   1,
			IterationsQuarantined: 1,
			QuarantineCauses:      map[string]int{"undersampled": 1},
		},
	}
	for i := 0; i < 3; i++ {
		s := cupti.Sample{Start: gpu.Nanos(1_000 * i), End: gpu.Nanos(1_000*i + 900)}
		for e := range s.Values {
			if (i+e)%3 != 0 {
				s.Values[e] = float64(i*10+e) + 0.25
			}
		}
		tr.Samples = append(tr.Samples, s)
	}
	tr.Timeline = tfsim.TimelineFromEvents([]tfsim.TimelineEvent{
		{Name: "MatMul", Start: 100, End: 2_100, Iteration: 0, Op: &tr.Ops[0]},
		{Name: "ApplyGD", Start: 2_200, End: 2_900, Iteration: 0, Op: &tr.Ops[1]},
		{Name: "marker", Start: 6_000, End: 6_000, Iteration: 1},
	})
	return tr
}

// wireGoldenSHA256 pins the bytes WriteTo emits for wireGoldenTrace. Trace
// files written by mosconsim and the serve journal's upload-hash keys both
// depend on these bytes, so a change here is a wire-format change and must
// not be silent: it takes a new version byte, and the bytes it replaces are
// frozen in testdata as a rejected input.
//
// wireSixCountersSHA256 pins wire-golden-v2-six-counters.trace: WriteTo's
// bytes at the retired version 2, whose header was a gob message, while it
// still named six chaos counters since deleted.
//
// wireGoldenV1SHA256 pins wire-golden-v1.trace: wireGoldenTrace as the
// retired version 1 writer serialized it.
const (
	wireGoldenSHA256      = "e6e9065dd44d24d3f474e1a55a37d52604ea4458d1bb1571cc6669e8c3fdad22"
	wireSixCountersSHA256 = "30edf4fa06f1563427fd043c73f21d9795a569d39f1eae69f586505e309d6830"
	wireGoldenV1SHA256    = "c8420d8760c6e741595560c9287c507e6401613bda7e57e24a680494191f9448"
)

// readFixture reads a testdata file and checks it against its SHA-256.
func readFixture(tb testing.TB, file, sum string) []byte {
	tb.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		tb.Fatal(err)
	}
	if got := sha256.Sum256(raw); hex.EncodeToString(got[:]) != sum {
		tb.Fatalf("%s changed: sha256 %x, pinned %s", file, got, sum)
	}
	return raw
}

func wireGoldenV1(tb testing.TB) []byte {
	return readFixture(tb, "wire-golden-v1.trace", wireGoldenV1SHA256)
}

func wireGoldenV2(tb testing.TB) []byte {
	return readFixture(tb, "wire-golden-v2-six-counters.trace", wireSixCountersSHA256)
}

func TestWireFormatGolden(t *testing.T) {
	want := wireGoldenTrace()
	raw := traceBytes(t, want)
	if sum := sha256.Sum256(raw); hex.EncodeToString(sum[:]) != wireGoldenSHA256 {
		t.Fatalf("WriteTo bytes changed: sha256 %x, golden %s", sum, wireGoldenSHA256)
	}
	got, err := ReadTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if err := tracesEqual(got, want); err != nil {
		t.Fatalf("golden bytes decode to a different trace: %v", err)
	}
}

// Wire format versions 1 and 2 are retired: such a trace fails at its own
// magic, with that offset and a hint to re-collect, whether it opens the
// stream or follows a good trace.
func TestReadTracesRejectsRetiredV1(t *testing.T) {
	good := traceBytes(t, wireGoldenTrace())
	for _, old := range [][]byte{wireGoldenV1(t), wireGoldenV2(t)} {
		for _, tc := range []struct {
			name   string
			stream []byte
			at     int
		}{
			{"alone", old, 0},
			{"after a good trace", append(append([]byte(nil), good...), old...), len(good)},
		} {
			_, err := ReadTraces(bytes.NewReader(tc.stream))
			want := fmt.Sprintf("bad magic %q at byte offset %d", old[:len(traceMagicV3)], tc.at)
			if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "re-collect version 1 and 2") {
				t.Fatalf("%q %s: err = %v, want %q naming the version as retired", old[:len(traceMagicV3)], tc.name, err, want)
			}
		}
	}
}

// fillLeaves sets every leaf under v to a distinct non-zero value, drawing
// from *next: a slice gets two elements and a pointer a fresh value. A kind
// it does not know fails the test: a new kind of field needs a look at the
// walk.
func fillLeaves(t *testing.T, v reflect.Value, next *int) {
	*next++
	n := *next
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(n) * 1_000_003)
	case reflect.Float64:
		v.SetFloat(float64(n) + 0.25)
	case reflect.String:
		v.SetString(fmt.Sprintf("leaf-%d", n))
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillLeaves(t, v.Elem(), next)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillLeaves(t, v.Field(i), next)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		fillLeaves(t, v.Index(0), next)
		fillLeaves(t, v.Index(1), next)
	case reflect.Map:
		if v.Type() != reflect.TypeOf(map[string]int(nil)) {
			t.Fatalf("no filler for map type %s", v.Type())
		}
		v.Set(reflect.ValueOf(map[string]int{fmt.Sprintf("b-%d", n): n, fmt.Sprintf("a-%d", n): -n}))
	default:
		t.Fatalf("no filler for %s (%s)", v.Type(), v.Kind())
	}
}

// TestTraceHeaderWalkComplete fills every leaf of a header with a distinct
// value and round-trips it: a field added to the header, the model, a layer,
// an op, a shape, Health or a chaos stats struct without a line in the walk
// decodes as zero and fails here.
func TestTraceHeaderWalkComplete(t *testing.T) {
	var hdr traceHeader
	next := 0
	fillLeaves(t, reflect.ValueOf(&hdr).Elem(), &next)
	raw := headerPayload(&hdr)
	var got traceHeader
	c := wire.NewDecoder(raw, 0)
	got.walk(c)
	if err := c.Finish(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, hdr) {
		t.Errorf("round trip lost a field:\n sent %+v\n got  %+v", hdr, got)
	}
	if !bytes.Equal(headerPayload(&got), raw) {
		t.Error("re-encoding a decoded header changed its bytes")
	}
}

// A trace WriteTo cannot encode must fail before its first byte reaches w,
// even when its samples alone would overflow any write buffer: otherwise a
// multi-trace file it was being appended to is left with a partial trace.
func TestWriteToForeignOpWritesNothing(t *testing.T) {
	tr := smallTrace(samplesPerChunk + 1)
	tr.Ops = []dnn.Op{{Kind: dnn.OpMatMul}}
	tr.Timeline = tfsim.TimelineFromEvents([]tfsim.TimelineEvent{
		{Name: "MatMul", Op: &tr.Ops[0]},
		{Name: "MatMul", Op: &dnn.Op{Kind: dnn.OpMatMul}},
	})
	var buf bytes.Buffer
	n, err := tr.WriteTo(&buf)
	if err == nil || !strings.Contains(err.Error(), "points outside the trace's op table") {
		t.Fatalf("foreign op: err = %v, want op-table error", err)
	}
	if n != 0 || buf.Len() != 0 {
		t.Fatalf("failed WriteTo reported %d bytes and left %d on the writer, want 0", n, buf.Len())
	}
}

// The reader decodes sample batches straight into the trace's spare
// capacity, so a later batch's zeros must still read back as zeros after an
// earlier batch of non-zero samples, whether WriteTo or a hostile stream
// wrote them.
func TestReadTraceZeroFieldsAcrossChunks(t *testing.T) {
	tr := &Trace{Samples: make([]cupti.Sample, samplesPerChunk+3)}
	for i := 0; i < samplesPerChunk; i++ {
		s := &tr.Samples[i]
		s.Start, s.End = gpu.Nanos(i+1), gpu.Nanos(i+2)
		for e := range s.Values {
			s.Values[e] = float64(i + e + 1)
		}
	}
	events := make([]tfsim.TimelineEvent, eventsPerChunk+2)
	for i := 0; i < eventsPerChunk; i++ {
		events[i] = tfsim.TimelineEvent{Name: "op", Start: gpu.Nanos(i + 1), End: gpu.Nanos(i + 2), Iteration: i + 1}
	}
	tr.Timeline = tfsim.TimelineFromEvents(events)
	got, err := ReadTrace(bytes.NewReader(traceBytes(t, tr)))
	if err != nil {
		t.Fatal(err)
	}
	if err := tracesEqual(got, tr); err != nil {
		t.Fatalf("zeroed second frames: %v", err)
	}

	smuggled := cupti.Sample{Start: 5, End: 6}
	smuggled.Values[0] = 7
	got, err = ReadTrace(bytes.NewReader(bytes.Join([][]byte{
		withHeader(&traceHeader{SampleCount: 2}),
		frame(chunkSamples, sampleRecords(smuggled)),
		frame(chunkSamples, sampleRecords(cupti.Sample{})),
		frame(chunkEnd, nil)}, nil)))
	if err != nil {
		t.Fatal(err)
	}
	if last := got.Samples[len(got.Samples)-1]; last != (cupti.Sample{}) {
		t.Fatalf("an earlier sample leaked into a zero one: %+v", last)
	}
}
