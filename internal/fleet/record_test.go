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
	especs, err := Plan(ecfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := deviceKeys(ecfg, especs, newModelShare(especs))[1], "87fa56a80d0cb8b9afa96e125a506a4fe368a98a61525c3e59db188e21931c27"; got != want {
		t.Errorf("shared-extraction key moved:\n got %s\nwant %s", got, want)
	}
}

// TestFleetJournalReplaysGobEraFixture resumes a tinyFleet(4,1) collect-only
// campaign from a journal whose device records are gob payloads, frozen from
// the encoder that wrote them before the binary record format existed. Every
// device must replay, equal to a live run.
func TestFleetJournalReplaysGobEraFixture(t *testing.T) {
	p := copyGobFixture(t)
	cfg := tinyFleet(4, 1)
	resumed := runJournaled(t, cfg, p)
	if resumed.Replayed != cfg.Devices {
		t.Fatalf("replayed %d of %d devices from the gob-era journal", resumed.Replayed, cfg.Devices)
	}
	live, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertReplayEqual(t, "gob-era", live, resumed)
}

// TestFleetJournalReplaysMixedVersions grows the gob-era campaign to six
// devices: the resume replays the four version 1 records and appends two
// version 2 records, and the next resume replays all six from the mixed
// journal.
func TestFleetJournalReplaysMixedVersions(t *testing.T) {
	p := copyGobFixture(t)
	cfg := tinyFleet(6, 1)
	if grown := runJournaled(t, cfg, p); grown.Replayed != 4 {
		t.Fatalf("replayed %d gob-era devices, want 4", grown.Replayed)
	}
	j, err := journal.Open(p)
	if err != nil {
		t.Fatal(err)
	}
	var versions []byte
	for _, rec := range j.Records() {
		versions = append(versions, rec.Payload[0])
	}
	j.Close()
	if want := []byte{0xff, 0xff, 0xff, 0xff, recordV2, recordV2}; !bytes.Equal(versions, want) {
		t.Fatalf("payload first bytes %x, want %x", versions, want)
	}
	live, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertReplayEqual(t, "mixed", live, runJournaled(t, cfg, p))
}

// copyGobFixture copies the gob-era journal fixture to a temporary file,
// since opening a journal may truncate it and resuming appends to it.
func copyGobFixture(tb testing.TB) string {
	tb.Helper()
	fixture, err := os.ReadFile(filepath.Join("testdata", "gob-era-collect4.journal"))
	if err != nil {
		tb.Fatal(err)
	}
	p := filepath.Join(tb.TempDir(), "gob.journal")
	if err := os.WriteFile(p, fixture, 0o644); err != nil {
		tb.Fatal(err)
	}
	return p
}

// assertReplayEqual checks that every device of got was replayed and is
// reflect.DeepEqual to the live result apart from the Replayed marker.
func assertReplayEqual(t *testing.T, label string, live, got *Result) {
	t.Helper()
	if len(live.Devices) != len(got.Devices) {
		t.Fatalf("%s: %d devices, want %d", label, len(got.Devices), len(live.Devices))
	}
	for i, d := range got.Devices {
		if !d.Replayed {
			t.Errorf("%s: device %d was re-executed, not replayed", label, i)
		}
		d.Replayed = false
		if !reflect.DeepEqual(live.Devices[i], d) {
			t.Errorf("%s: device %d replayed unequal to live:\n live   %+v\n replay %+v", label, i, live.Devices[i], d)
		}
	}
}

// TestFleetJournalReplayEqualsLive: a journaled result restored on resume
// carries every field the live run produced, not just the hashes
// assertSameDevices compares — collect-only devices, a quarantined device
// (nil Health), and an extraction device.
func TestFleetJournalReplayEqualsLive(t *testing.T) {
	quarantined := tinyFleet(2, 1)
	quarantined.FleetChaos = chaos.FleetPlan{CrashProb: 1, FaultyAttempts: 8}
	cases := map[string]Config{"collect-only": tinyFleet(4, 2), "quarantined": quarantined}
	if !testing.Short() {
		cases["extraction"] = oneGroupFleet(2, 1)
	}
	for name, cfg := range cases {
		p := filepath.Join(t.TempDir(), "run.journal")
		live := runJournaled(t, cfg, p)
		if name == "quarantined" && live.Quarantined != cfg.Devices {
			t.Fatalf("quarantined %d of %d devices", live.Quarantined, cfg.Devices)
		}
		assertReplayEqual(t, name, live, runJournaled(t, cfg, p))
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
// distinct value and round-trips it through the version 2 codec. A field
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

// TestDeviceRecordRejectsDamage: a version 2 payload is checked against the
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
		{"unknown version", []byte{0x83}, "unknown device record version"},
		{"huge causes count", huge, "causes count exceeds payload"},
		{"non-minimal varint", padded, "bad varint"},
	} {
		if err := decodeRecord(c.p, &got); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want %q", c.name, err, c.want)
		}
	}
}

// gobFixturePayloads returns the device-record payloads of the gob-era
// journal fixture.
func gobFixturePayloads(tb testing.TB) [][]byte {
	tb.Helper()
	j, err := journal.Open(copyGobFixture(tb))
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

// gobSliceCap is the most gob allocates for one slice before it finds the
// bytes short (encoding/gob sizes slices through internal/saferio's 10 MB
// chunk).
const gobSliceCap = 10 << 20

// FuzzDeviceRecord feeds arbitrary payloads to the record decoder. Nothing
// panics; a decode allocates in proportion to the payload, plus for version
// 1 at most one capped gob slice per pass; whatever decodes re-encodes to a
// version 2 payload that decodes to the same record, and a version 2 payload
// re-encodes to its own bytes.
func FuzzDeviceRecord(f *testing.F) {
	var filled deviceRecord
	next := 0
	fillLeaves(f, reflect.ValueOf(&filled).Elem(), &next)
	seeds := [][]byte{
		encodeRecord(nil, &filled),
		encodeRecord(nil, &deviceRecord{}),
		encodeRecord(nil, &deviceRecord{Quarantined: true, FailCause: CauseDeviceCrash, ModelRep: -1}),
	}
	seeds = append(seeds, gobFixturePayloads(f)...)
	for _, s := range seeds[:len(seeds):len(seeds)] {
		seeds = append(seeds, s[:1], s[:len(s)/2], s[:len(s)-1])
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		var rec deviceRecord
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := decodeRecord(p, &rec)
		runtime.ReadMemStats(&after)
		v2 := len(p) > 0 && p[0] == recordV2
		limit := 4096 + 64*uint64(len(p))
		if !v2 {
			limit += 2 * gobSliceCap
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > limit {
			t.Fatalf("decoding %d bytes allocated %d", len(p), alloc)
		}
		if err != nil {
			return
		}
		out := encodeRecord(nil, &rec)
		if v2 && !bytes.Equal(out, p) {
			t.Fatalf("re-encoding changed the payload:\n in  %x\n out %x", p, out)
		}
		var again deviceRecord
		if err := decodeRecord(out, &again); err != nil {
			t.Fatalf("re-encoded payload does not decode: %v", err)
		}
		if !bytes.Equal(encodeRecord(nil, &again), out) {
			t.Fatal("version 2 round trip is not stable")
		}
	})
}
