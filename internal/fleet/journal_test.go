package fleet

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
	"time"

	"leakydnn/internal/chaos"
	"leakydnn/internal/journal"
)

// frameBoundaries walks the journal wire format and returns every record
// boundary offset (including the post-magic offset): truncating the file at
// boundaries[i] leaves exactly i intact records.
func frameBoundaries(t *testing.T, data []byte) []int64 {
	t.Helper()
	off := int64(len(journal.Magic))
	bounds := []int64{off}
	for off < int64(len(data)) {
		if off+8 > int64(len(data)) {
			t.Fatalf("trailing garbage at offset %d", off)
		}
		bodyLen := int64(binary.LittleEndian.Uint32(data[off : off+4]))
		off += 8 + bodyLen
		bounds = append(bounds, off)
	}
	return bounds
}

// runJournaled runs specs, or cfg's own plan when specs is nil, journaled
// at path.
func runJournaled(t *testing.T, cfg Config, specs []DeviceSpec, path string) *Result {
	t.Helper()
	j, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	cfg.Journal = j
	if specs == nil {
		if specs, err = Plan(cfg); err != nil {
			t.Fatal(err)
		}
	}
	res, err := RunSpecs(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func assertSameDevices(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if len(want.Devices) != len(got.Devices) {
		t.Fatalf("%s: %d devices, want %d", label, len(got.Devices), len(want.Devices))
	}
	for i := range want.Devices {
		a, b := want.Devices[i], got.Devices[i]
		if a.TraceHash != b.TraceHash {
			t.Errorf("%s: device %d trace hash diverged:\n want %s\n got  %s", label, i, a.TraceHash, b.TraceHash)
		}
		if a.ExtractHash != b.ExtractHash || a.Fingerprint != b.Fingerprint {
			t.Errorf("%s: device %d extraction diverged (fingerprint %q vs %q)", label, i, a.Fingerprint, b.Fingerprint)
		}
		if a.SchedSlices != b.SchedSlices || a.SamplesPerIter != b.SamplesPerIter {
			t.Errorf("%s: device %d stats diverged", label, i)
		}
		if a.Quarantined != b.Quarantined || a.FailCause != b.FailCause {
			t.Errorf("%s: device %d quarantine state diverged", label, i)
		}
	}
}

// TestFleetJournalResumeAtEveryBoundary is the SIGKILL property test: a
// journaled fleet run killed at any record boundary — and at torn-write
// points inside a record — must resume to results byte-identical to the
// uninterrupted run, re-executing exactly the devices whose records were
// lost.
func TestFleetJournalResumeAtEveryBoundary(t *testing.T) {
	cfg := tinyFleet(4, 2)
	dir := t.TempDir()
	golden := runJournaled(t, cfg, nil, filepath.Join(dir, "golden.journal"))
	full, err := os.ReadFile(filepath.Join(dir, "golden.journal"))
	if err != nil {
		t.Fatal(err)
	}
	bounds := frameBoundaries(t, full)
	if len(bounds) != cfg.Devices+1 {
		t.Fatalf("journal holds %d records, want %d", len(bounds)-1, cfg.Devices)
	}

	// Kill points: every record boundary, plus torn writes inside each
	// record (header split, mid-body, one byte short of complete).
	cuts := make(map[int64]int) // offset -> intact records
	for i, b := range bounds {
		cuts[b] = i
	}
	for i := 1; i < len(bounds); i++ {
		prev, next := bounds[i-1], bounds[i]
		for _, torn := range []int64{prev + 4, (prev + next) / 2, next - 1} {
			if torn > prev && torn < next {
				cuts[torn] = i - 1
			}
		}
	}

	for cut, intact := range cuts {
		p := filepath.Join(dir, "cut.journal")
		if err := os.WriteFile(p, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		resumed := runJournaled(t, cfg, nil, p)
		assertSameDevices(t, "resume", golden, resumed)
		if resumed.Replayed != intact {
			t.Errorf("cut@%d: replayed %d devices from journal, want %d", cut, resumed.Replayed, intact)
		}
		replayed := 0
		for _, d := range resumed.Devices {
			if d.Replayed {
				replayed++
			}
		}
		if replayed != intact {
			t.Errorf("cut@%d: %d devices marked Replayed, want %d", cut, replayed, intact)
		}
	}
}

// TestFleetJournalFullPipelineFingerprintGolden pins the acceptance
// criterion on the full extraction path: a fleet killed after its first
// device record and resumed produces per-device Recovery fingerprints
// byte-identical to the uninterrupted run.
func TestFleetJournalFullPipelineFingerprintGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("trains per-device model sets")
	}
	cfg := tinyFleet(2, 2)
	cfg.CollectOnly = false
	dir := t.TempDir()
	golden := runJournaled(t, cfg, nil, filepath.Join(dir, "golden.journal"))
	for i, d := range golden.Devices {
		if d.Fingerprint == "" {
			t.Fatalf("device %d has no fingerprint", i)
		}
	}
	full, err := os.ReadFile(filepath.Join(dir, "golden.journal"))
	if err != nil {
		t.Fatal(err)
	}
	bounds := frameBoundaries(t, full)
	// Kill after the first device's record survived.
	p := filepath.Join(dir, "cut.journal")
	if err := os.WriteFile(p, full[:bounds[1]], 0o644); err != nil {
		t.Fatal(err)
	}
	resumed := runJournaled(t, cfg, nil, p)
	assertSameDevices(t, "full-pipeline resume", golden, resumed)
	if resumed.Replayed != 1 {
		t.Errorf("replayed %d devices, want 1", resumed.Replayed)
	}
}

// TestFleetJournalIgnoresForeignCampaign: records keyed for a different
// campaign (other seed) must not satisfy this one's devices.
func TestFleetJournalIgnoresForeignCampaign(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "shared.journal")
	other := tinyFleet(2, 2)
	other.Base.Seed = 99
	runJournaled(t, other, nil, path)

	cfg := tinyFleet(2, 2)
	res := runJournaled(t, cfg, nil, path)
	if res.Replayed != 0 {
		t.Fatalf("replayed %d foreign records", res.Replayed)
	}
	// The same campaign now resumes fully from its own records, ignoring the
	// foreign ones interleaved ahead of them.
	res2 := runJournaled(t, cfg, nil, path)
	if res2.Replayed != 2 {
		t.Fatalf("replayed %d own records, want 2", res2.Replayed)
	}
	assertSameDevices(t, "shared journal", res, res2)
}

// TestFleetCrashRetryIsolation is the second acceptance criterion: a device
// crash injected via chaos.FleetPlan is retried on an isolated seed stream
// without changing any other device's trace hash.
func TestFleetCrashRetryIsolation(t *testing.T) {
	const devices = 4
	clean, err := Run(tinyFleet(devices, 2))
	if err != nil {
		t.Fatal(err)
	}

	cfg := tinyFleet(devices, 2)
	cfg.FleetChaos = chaos.FleetPlan{CrashProb: 0.5, FaultyAttempts: 1}
	cfg.Retries = 2
	faulted, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	sawCrash := false
	for i, d := range faulted.Devices {
		crashes := cfg.FleetChaos.FaultsFor(i, 0).CrashFrac > 0
		if !crashes {
			if d.Attempts != 1 {
				t.Errorf("clean device %d ran %d attempts, want 1", i, d.Attempts)
			}
			if d.TraceHash != clean.Devices[i].TraceHash {
				t.Errorf("device %d perturbed by a crashing neighbour:\n clean %s\n dirty %s",
					i, clean.Devices[i].TraceHash, d.TraceHash)
			}
			continue
		}
		sawCrash = true
		if d.Quarantined {
			t.Errorf("device %d quarantined despite %d retries", i, cfg.Retries)
			continue
		}
		if d.Attempts != 2 {
			t.Errorf("crashed device %d ran %d attempts, want 2", i, d.Attempts)
		}
		// The retry draws from its own stream: deterministic, but not the
		// original seed's bytes.
		if d.TraceHash == clean.Devices[i].TraceHash {
			t.Errorf("device %d retry reproduced the original seed's trace — retry stream not isolated", i)
		}
	}
	if !sawCrash {
		t.Fatalf("FleetPlan crashed no device in %d; raise CrashProb", devices)
	}

	// Determinism of the whole supervised run: same config, same bytes.
	again, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertSameDevices(t, "supervised rerun", faulted, again)
}

// TestFleetQuarantineDeliversPartialResults: with no retries, a crashing
// device must be quarantined with its cause — and the fleet must still
// deliver every other device's result rather than aborting.
func TestFleetQuarantineDeliversPartialResults(t *testing.T) {
	cfg := tinyFleet(2, 2)
	cfg.FleetChaos = chaos.FleetPlan{CrashProb: 1, FaultyAttempts: 8}
	cfg.Retries = 1
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("fleet aborted instead of quarantining: %v", err)
	}
	if res.Quarantined != 2 {
		t.Fatalf("quarantined %d devices, want 2 (%+v)", res.Quarantined, res.QuarantineCauses)
	}
	if res.QuarantineCauses[CauseDeviceCrash] != 2 {
		t.Errorf("quarantine causes = %+v, want device-crash 2", res.QuarantineCauses)
	}
	for i, d := range res.Devices {
		if !d.Quarantined || d.FailCause != CauseDeviceCrash || d.Attempts != cfg.Retries+1 {
			t.Errorf("device %d = {quarantined %t cause %q attempts %d}", i, d.Quarantined, d.FailCause, d.Attempts)
		}
	}
	if RenderRollup(res.Devices) == "" {
		t.Error("empty rollup render")
	}
}

// TestFleetWatchdogTimeout: an attempt that cannot finish inside the
// watchdog deadline is abandoned and the device quarantined as a timeout.
// A 1 ns deadline has always passed when the result lands, so every run
// must time out, however the scheduler orders the device and the timer.
func TestFleetWatchdogTimeout(t *testing.T) {
	cfg := tinyFleet(1, 1)
	cfg.Watchdog = time.Nanosecond
	cfg.Retries = 0
	for run := 0; run < 20; run++ {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d := res.Devices[0]
		if !d.Quarantined || d.FailCause != CauseWatchdogTimeout {
			t.Fatalf("run %d: device = {quarantined %t cause %q}, want watchdog-timeout quarantine",
				run, d.Quarantined, d.FailCause)
		}
	}
}

// TestFleetJournalGoldenUnchangedByJournaling: journaling itself must not
// perturb the run — the journaled fleet's device 0 still matches the
// golden hash pinned by TestFleetDeviceCountAndWorkerInvariance.
func TestFleetJournalGoldenUnchangedByJournaling(t *testing.T) {
	res := runJournaled(t, tinyFleet(2, 1), nil, filepath.Join(t.TempDir(), "run.journal"))
	if got := res.Devices[0].TraceHash; got != goldenDev0TraceSHA256 {
		t.Errorf("journaled device 0 trace drifted from golden:\n got %s\nwant %s", got, goldenDev0TraceSHA256)
	}
}
