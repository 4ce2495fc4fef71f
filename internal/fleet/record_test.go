package fleet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"leakydnn/internal/chaos"
	"leakydnn/internal/journal"
	"leakydnn/internal/trace"
)

// TestDeviceKeyGolden pins the journal key bytes. A key that moves orphans
// every record already on disk: the resume would silently re-execute the
// whole campaign instead of replaying it.
func TestDeviceKeyGolden(t *testing.T) {
	cfg := tinyFleet(4, 1)
	specs, err := Plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := deviceKeys(cfg, specs, nil)[1], "c7b0e0b28838cc8aa0e44e77fb3e9b67640eb7d4ed01282b69b85467a2f3b295"; got != want {
		t.Errorf("collect-only key moved:\n got %s\nwant %s", got, want)
	}
	ecfg := oneGroupFleet(2, 1)
	especs := oneGroupPlan(t, ecfg)
	if got, want := deviceKeys(ecfg, especs, newModelShare(especs))[1], "87fa56a80d0cb8b9afa96e125a506a4fe368a98a61525c3e59db188e21931c27"; got != want {
		t.Errorf("shared-extraction key moved:\n got %s\nwant %s", got, want)
	}
	// A key that carries chaos: every fault field a production plan can set
	// is non-zero here, so a change to how any of them is written shows.
	ccfg := tinyFleet(4, 1)
	ccfg.FleetChaos = chaos.FleetAt(0.5)
	ccfg.Base.Chaos = chaos.At(0.25)
	ccfg.Base.Chaos.Seed = 7
	ccfg.Base.Chaos.Sched = chaos.SchedAt(0.5)
	ccfg.Base.Chaos.Sched.Seed = 11
	cspecs, err := Plan(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := deviceKeys(ccfg, cspecs, nil)[1], "17787122ee7af7a8f074b174ee92dad163e8755f1262860106d4aa8308ca14b4"; got != want {
		t.Errorf("chaos-bearing key moved:\n got %s\nwant %s", got, want)
	}
}

// TestPlanKeyCoversEveryField: every fault-plan field reaches the journal
// key, so a field added to a plan without a line in appendPlanKey or
// appendFleetPlanKey fails here instead of letting two plans share a key.
func TestPlanKeyCoversEveryField(t *testing.T) {
	var p chaos.Plan
	var fp chaos.FleetPlan
	key := func() string { return string(appendPlanKey(appendFleetPlanKey(nil, fp), p)) }
	base := key()
	var walk func(name string, v reflect.Value)
	walk = func(name string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(name+"."+v.Type().Field(i).Name, v.Field(i))
			}
			return
		case reflect.Int, reflect.Int64:
			v.SetInt(3)
		case reflect.Float64:
			v.SetFloat(0.5)
		default:
			t.Fatalf("%s: no test value for kind %s", name, v.Kind())
		}
		if key() == base {
			t.Errorf("%s does not reach the journal key", name)
		}
		v.Set(reflect.Zero(v.Type()))
	}
	walk("Plan", reflect.ValueOf(&p).Elem())
	walk("FleetPlan", reflect.ValueOf(&fp).Elem())
}

// TestKeyFloatMatchesFmt: keyFloat writes a float the way fmt's %v did when
// it formatted the key.
func TestKeyFloatMatchesFmt(t *testing.T) {
	for _, v := range []float64{0, math.Copysign(0, -1), 0.1 + 0.2, 1.0 / 3, 0.175, 1, 16, 1e-5, 1e20, 1e21,
		123456789, math.SmallestNonzeroFloat64, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()} {
		if got, want := string(keyFloat(nil, "", v)), fmt.Sprint(v); got != want {
			t.Errorf("keyFloat(%v) = %q, fmt prints %q", v, got, want)
		}
	}
}

// TestDeviceKeyBatch: a shared model set trained at another LSTM minibatch
// size is another model set, so an extraction key must move with the batch,
// or a resume at -batch 4 would replay results extracted with batch-1
// models. Batch 0 defaults to 1 and trains byte-identical models, so the
// two share keys (and the golden above); collect-only keys never carry it.
func TestDeviceKeyBatch(t *testing.T) {
	keys := func(collectOnly bool, batch int) []string {
		cfg := oneGroupFleet(2, 1)
		cfg.CollectOnly = collectOnly
		cfg.Base.Attack.Batch = batch
		specs := oneGroupPlan(t, cfg)
		var share *modelShare
		if !collectOnly {
			share = newModelShare(specs)
		}
		return deviceKeys(cfg, specs, share)
	}
	b0, b1, b4 := keys(false, 0), keys(false, 1), keys(false, 4)
	for i := range b1 {
		if b0[i] != b1[i] {
			t.Errorf("device %d: batch 0 key %s != batch 1 key %s", i, b0[i], b1[i])
		}
		if b4[i] == b1[i] {
			t.Errorf("device %d: batch 4 and batch 1 share key %s", i, b1[i])
		}
	}
	c0, c4 := keys(true, 0), keys(true, 4)
	for i := range c0 {
		if c0[i] != c4[i] {
			t.Errorf("device %d: collect-only key moved with the batch: %s vs %s", i, c0[i], c4[i])
		}
	}
}

// TestFleetJournalReplaysGobEraFixture resumes a tinyFleet(4,1) collect-only
// campaign from a journal whose device records are gob payloads, frozen from
// the encoder that wrote them before the binary record format existed.
// Version 1 is retired, so every device re-executes, equal to a live run,
// and appends a version 3 record that the next resume replays.
func TestFleetJournalReplaysGobEraFixture(t *testing.T) {
	assertRetiredFixtureReexecutes(t, "gob-era-collect4.journal")
}

// TestFleetJournalReexecutesV2Records does the same from a journal of
// version 2 (0x82) records, frozen from the encoder that wrote them while
// the record carried six chaos counters that nothing set.
func TestFleetJournalReexecutesV2Records(t *testing.T) {
	assertRetiredFixtureReexecutes(t, "v2-collect4.journal")
}

func assertRetiredFixtureReexecutes(t *testing.T, fixture string) {
	t.Helper()
	p := copyFixture(t, fixture)
	cfg := tinyFleet(4, 1)
	live, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resumed := runJournaled(t, cfg, nil, p)
	if resumed.Replayed != 0 {
		t.Fatalf("replayed %d devices from retired records", resumed.Replayed)
	}
	assertResultsEqual(t, fixture+" re-executed", live, resumed, false)
	assertResultsEqual(t, fixture+" resumed again", live, runJournaled(t, cfg, nil, p), true)
}

// TestFleetJournalReplaysFrozenV3 resumes a tinyFleet(4,1) collect-only
// campaign from a journal of version 3 records frozen from the encoder that
// wrote them before the record walk moved into internal/wire. Every payload
// must decode and re-encode to its own bytes, and every device must replay,
// equal to a live run, without running again or appending a record.
func TestFleetJournalReplaysFrozenV3(t *testing.T) {
	p := copyFixture(t, "v3-collect4.journal")
	payloads := journalPayloads(t, p)
	for i, payload := range payloads {
		var rec deviceRecord
		if err := decodeRecord(payload, &rec); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if again := encodeRecord(nil, &rec); !bytes.Equal(again, payload) {
			t.Fatalf("record %d re-encodes to different bytes:\n frozen %x\n now    %x", i, payload, again)
		}
	}
	cfg := tinyFleet(4, 1)
	live, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resumed := runJournaled(t, cfg, nil, p)
	if resumed.Replayed != cfg.Devices {
		t.Fatalf("replayed %d of %d devices", resumed.Replayed, cfg.Devices)
	}
	if n := len(journalPayloads(t, p)); n != len(payloads) {
		t.Fatalf("resume grew the journal from %d to %d records", len(payloads), n)
	}
	assertResultsEqual(t, "frozen v3", live, resumed, true)
}

// TestFleetJournalReplaysMixedVersions grows the gob-era campaign to six
// devices: the resume re-executes all six and appends six version 3
// records. Retired records of both versions for the same keys, appended
// after the live ones, must not hide them: the next resume replays all six.
func TestFleetJournalReplaysMixedVersions(t *testing.T) {
	p := copyFixture(t, "gob-era-collect4.journal")
	cfg := tinyFleet(6, 1)
	if grown := runJournaled(t, cfg, nil, p); grown.Replayed != 0 {
		t.Fatalf("replayed %d gob-era devices, want 0", grown.Replayed)
	}
	j, err := journal.Open(p)
	if err != nil {
		t.Fatal(err)
	}
	var versions []byte
	for _, rec := range j.Records() {
		versions = append(versions, rec.Payload[0])
	}
	if want := append([]byte{0xff, 0xff, 0xff, 0xff}, bytes.Repeat([]byte{recordV3}, 6)...); !bytes.Equal(versions, want) {
		j.Close()
		t.Fatalf("payload first bytes %x, want %x", versions, want)
	}
	retired := append([]journal.Record(nil), j.Records()[:4]...)
	v2, err := journal.Open(copyFixture(t, "v2-collect4.journal"))
	if err != nil {
		t.Fatal(err)
	}
	retired = append(retired, v2.Records()...)
	v2.Close()
	for _, rec := range retired {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	live, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, "mixed", live, runJournaled(t, cfg, nil, p), true)
}

// copyFixture copies a journal fixture to a temporary file, since opening a
// journal may truncate it and resuming appends to it.
func copyFixture(tb testing.TB, name string) string {
	tb.Helper()
	fixture, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		tb.Fatal(err)
	}
	p := filepath.Join(tb.TempDir(), name)
	if err := os.WriteFile(p, fixture, 0o644); err != nil {
		tb.Fatal(err)
	}
	return p
}

// assertResultsEqual checks that every device of got is reflect.DeepEqual to
// the live result apart from the Replayed marker, which must read replayed.
func assertResultsEqual(t *testing.T, label string, live, got *Result, replayed bool) {
	t.Helper()
	if len(live.Devices) != len(got.Devices) {
		t.Fatalf("%s: %d devices, want %d", label, len(got.Devices), len(live.Devices))
	}
	for i, d := range got.Devices {
		if d.Replayed != replayed {
			t.Errorf("%s: device %d Replayed = %t, want %t", label, i, d.Replayed, replayed)
		}
		d.Replayed = false
		if !reflect.DeepEqual(live.Devices[i], d) {
			t.Errorf("%s: device %d unequal to live:\n live %+v\n got  %+v", label, i, live.Devices[i], d)
		}
	}
}

// TestFleetJournalReplayEqualsLive: a journaled result restored on resume
// carries every field the live run produced, not just the hashes
// assertSameDevices compares — collect-only devices, a quarantined device
// (nil Health), and an extraction device. A collect-only record stores
// ModelRep -1 itself; replay does not patch it in.
func TestFleetJournalReplayEqualsLive(t *testing.T) {
	quarantined := tinyFleet(2, 1)
	quarantined.FleetChaos = chaos.FleetPlan{CrashProb: 1, FaultyAttempts: 8}
	cases := map[string]Config{"collect-only": tinyFleet(4, 2), "quarantined": quarantined}
	if !testing.Short() {
		cases["extraction"] = oneGroupFleet(2, 1)
	}
	for name, cfg := range cases {
		var specs []DeviceSpec
		if name == "extraction" {
			specs = oneGroupPlan(t, cfg)
		}
		p := filepath.Join(t.TempDir(), "run.journal")
		live := runJournaled(t, cfg, specs, p)
		if name == "quarantined" && live.Quarantined != cfg.Devices {
			t.Fatalf("quarantined %d of %d devices", live.Quarantined, cfg.Devices)
		}
		if cfg.CollectOnly {
			for i, payload := range journalPayloads(t, p) {
				var rec deviceRecord
				if err := decodeRecord(payload, &rec); err != nil {
					t.Fatal(err)
				}
				if rec.ModelRep != -1 {
					t.Errorf("%s: record %d stores ModelRep %d, want -1", name, i, rec.ModelRep)
				}
			}
		}
		assertResultsEqual(t, name, live, runJournaled(t, cfg, specs, p), true)
	}
}

// fillLeaves sets every leaf under v to a distinct non-zero value, drawing
// from *next, and allocates every pointer on the way. A kind it does not
// know fails the test: a new kind of field needs a look at the codec.
func fillLeaves(t testing.TB, v reflect.Value, next *int) {
	t.Helper()
	*next++
	n := *next
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(n) * 1_000_003)
	case reflect.Float64:
		v.SetFloat(float64(n) + 0.25)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString(fmt.Sprintf("leaf-%d", n))
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillLeaves(t, v.Elem(), next)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillLeaves(t, v.Field(i), next)
		}
	case reflect.Map:
		if v.Type() != reflect.TypeOf(map[string]int(nil)) {
			t.Fatalf("no filler for map type %s", v.Type())
		}
		v.Set(reflect.ValueOf(map[string]int{fmt.Sprintf("b-%d", n): n, fmt.Sprintf("a-%d", n): -n}))
	default:
		t.Fatalf("no filler for %s (%s)", v.Type(), v.Kind())
	}
}

// TestDeviceRecordCodecComplete fills every leaf of a deviceRecord with a
// distinct value and round-trips it through the version 3 codec. A field
// added to deviceRecord, Coverage, Health or a chaos stats struct without a
// line in the codec decodes as zero and fails here.
func TestDeviceRecordCodecComplete(t *testing.T) {
	var rec deviceRecord
	next := 0
	fillLeaves(t, reflect.ValueOf(&rec).Elem(), &next)
	p := encodeRecord(nil, &rec)
	var got deviceRecord
	if err := decodeRecord(p, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec, got) {
		t.Errorf("round trip lost a field:\n sent %+v\n got  %+v", rec, got)
	}
	if again := encodeRecord(nil, &got); !bytes.Equal(again, p) {
		t.Error("re-encoding a decoded record changed its bytes")
	}
}

// TestDeviceRecordCodecEdges pins the values a generic codec gets wrong:
// NaN and -0 accuracies, a nil Health, and a nil versus an empty causes map.
func TestDeviceRecordCodecEdges(t *testing.T) {
	recs := []deviceRecord{
		{LetterAcc: math.NaN(), LayerAcc: math.Copysign(0, -1), HPAcc: math.Inf(-1), ModelRep: -1},
		{Health: &trace.Health{}, Quarantined: true, FailCause: CauseDeviceCrash},
		{Health: &trace.Health{QuarantineCauses: map[string]int{}}},
		{Health: &trace.Health{QuarantineCauses: map[string]int{"": 0, "undersampled": 2, "no-samples": 1}}},
	}
	for i, rec := range recs {
		p := encodeRecord(nil, &rec)
		var got deviceRecord
		if err := decodeRecord(p, &got); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if again := encodeRecord(nil, &got); !bytes.Equal(again, p) {
			t.Errorf("record %d: re-encoding changed the bytes", i)
		}
		if math.Float64bits(got.LetterAcc) != math.Float64bits(rec.LetterAcc) ||
			math.Float64bits(got.LayerAcc) != math.Float64bits(rec.LayerAcc) {
			t.Errorf("record %d: float bits changed", i)
		}
		if (got.Health == nil) != (rec.Health == nil) {
			t.Errorf("record %d: Health presence changed", i)
		} else if got.Health != nil && !reflect.DeepEqual(got.Health, rec.Health) {
			t.Errorf("record %d: Health %+v, want %+v", i, got.Health, rec.Health)
		}
	}
}

// TestDeviceRecordRejectsDamage: a version 3 payload is checked against the
// bytes that remain before anything is sized from it, and must be consumed
// exactly.
func TestDeviceRecordRejectsDamage(t *testing.T) {
	rec := deviceRecord{Health: &trace.Health{QuarantineCauses: map[string]int{"a": 1, "b": 2}}, TraceHash: "abc"}
	p := encodeRecord(nil, &rec)
	var got deviceRecord
	for cut := 1; cut < len(p); cut++ {
		if err := decodeRecord(p[:cut], &got); err == nil {
			t.Errorf("payload cut at %d of %d decoded", cut, len(p))
		}
	}
	if err := decodeRecord(append(p[:len(p):len(p)], 0), &got); err == nil {
		t.Error("trailing byte accepted")
	}
	// An empty causes map ends the Health; nine single-byte fields follow it.
	empty := encodeRecord(nil, &deviceRecord{Health: &trace.Health{QuarantineCauses: map[string]int{}}})
	count := len(empty) - 10
	huge := append(binary.AppendUvarint(append([]byte(nil), empty[:count]...), 1<<40), empty[count+1:]...)
	zero := encodeRecord(nil, &deviceRecord{})
	padded := append(append(append([]byte(nil), zero[:33]...), 0x80, 0x00), zero[34:]...)
	for _, c := range []struct {
		name string
		p    []byte
		want string
	}{
		{"unknown version", []byte{0x84}, "unknown device record version"},
		{"empty", nil, "empty device record"},
		{"huge causes count", huge, "causes count exceeds payload"},
		{"non-minimal varint", padded, "bad varint"},
	} {
		if err := decodeRecord(c.p, &got); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want %q", c.name, err, c.want)
		}
	}
}

// journalPayloads returns the record payloads of the journal at path.
func journalPayloads(tb testing.TB, path string) [][]byte {
	tb.Helper()
	j, err := journal.Open(path)
	if err != nil {
		tb.Fatal(err)
	}
	defer j.Close()
	var out [][]byte
	for _, rec := range j.Records() {
		out = append(out, rec.Payload)
	}
	return out
}

// FuzzDeviceRecord feeds arbitrary payloads to the record decoder. Nothing
// panics; a decode allocates in proportion to the payload; whatever decodes
// re-encodes to the same bytes and decodes again to the same record. The
// retired gob-era payloads stay as seeds, and must be refused.
func FuzzDeviceRecord(f *testing.F) {
	var filled deviceRecord
	next := 0
	fillLeaves(f, reflect.ValueOf(&filled).Elem(), &next)
	seeds := [][]byte{
		encodeRecord(nil, &filled),
		encodeRecord(nil, &deviceRecord{}),
		encodeRecord(nil, &deviceRecord{Quarantined: true, FailCause: CauseDeviceCrash, ModelRep: -1}),
	}
	seeds = append(seeds, journalPayloads(f, copyFixture(f, "gob-era-collect4.journal"))...)
	for _, s := range seeds[:len(seeds):len(seeds)] {
		seeds = append(seeds, s[:1], s[:len(s)/2], s[:len(s)-1])
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		// A decode allocates the same on every run. TotalAlloc also counts
		// what the fuzz worker's own goroutines allocate meanwhile, so the
		// least of three runs is the decode's.
		var rec deviceRecord
		var err error
		alloc := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err = decodeRecord(p, &rec)
			runtime.ReadMemStats(&after)
			alloc = min(alloc, after.TotalAlloc-before.TotalAlloc)
		}
		if limit := 4096 + 64*uint64(len(p)); alloc > limit {
			t.Fatalf("decoding %d bytes allocated %d", len(p), alloc)
		}
		if err != nil {
			return
		}
		if p[0] != recordV3 {
			t.Fatalf("payload with version byte %#x decoded", p[0])
		}
		out := encodeRecord(nil, &rec)
		if !bytes.Equal(out, p) {
			t.Fatalf("re-encoding changed the payload:\n in  %x\n out %x", p, out)
		}
		var again deviceRecord
		if err := decodeRecord(out, &again); err != nil {
			t.Fatalf("re-encoded payload does not decode: %v", err)
		}
		if !bytes.Equal(encodeRecord(nil, &again), out) {
			t.Fatal("version 3 round trip is not stable")
		}
	})
}
