package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"leakydnn/internal/eval"
	"leakydnn/internal/fleet"
	"leakydnn/internal/journal"
)

// fleetDevices sizes each campaign: the default 4 classes × 3 tenancy mixes,
// cycled.
const fleetDevices = 96

// fleetCollect is the fleet-collect workload: a journaled collect-only
// fleet.Run, then the same campaign resumed from its journal, so every
// device is replayed.
type fleetCollect struct {
	o     options
	nproc int
	cfg   fleet.Config
	// ref holds each device's TraceHash from an unjournaled campaign run in
	// setup; journaled and resumed campaigns must reproduce it.
	ref       []string
	campaigns []campaign
}

type campaign struct {
	run, resumed *fleet.Result
	resumeWall   time.Duration
}

func newFleetCollect(o options) *fleetCollect {
	nproc := runtime.NumCPU()
	base := eval.Tiny()
	base.Seed = o.seed
	base.Workers = nproc
	return &fleetCollect{o: o, nproc: nproc, cfg: fleet.Config{Base: base, Devices: fleetDevices, CollectOnly: true}}
}

func (f *fleetCollect) setup(ctx context.Context, tr *tracer) error {
	id := tr.begin("fleet.reference_run", 0, -1)
	res, err := fleet.Run(f.cfg)
	tr.end(id)
	if err != nil {
		return err
	}
	f.ref = f.ref[:0]
	for _, d := range res.Devices {
		if d.Quarantined || d.TraceHash == "" {
			return fmt.Errorf("reference campaign: device %s failed: %s", d.Spec.Name, d.ExtractErr)
		}
		f.ref = append(f.ref, d.TraceHash)
	}
	return os.MkdirAll(f.o.workDir, 0o755)
}

// phase runs journaled campaigns, each followed by its resume, until
// --seconds have passed, at least once. Latency is the journaled campaign's.
func (f *fleetCollect) phase(ctx context.Context, tr *tracer) (*phaseResult, error) {
	pr := &phaseResult{layer: make(map[string]float64), named: make(map[string]metric)}
	f.campaigns = f.campaigns[:0]
	deadline := time.Now().Add(time.Duration(f.o.seconds) * time.Second)
	for op := int64(0); op == 0 || time.Now().Before(deadline); op++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		path := filepath.Join(f.o.workDir, fmt.Sprintf("fleet-%d-%d.jrnl", os.Getpid(), op))
		var c campaign
		start := time.Now()
		id := tr.begin("fleet.run", 0, op)
		err := f.journaled(path, &c.run)
		tr.end(id)
		lat := time.Since(start)
		if err == nil {
			start = time.Now()
			id = tr.begin("journal.replay", 0, op)
			err = f.journaled(path, &c.resumed)
			tr.end(id)
			c.resumeWall = time.Since(start)
		}
		if rerr := os.Remove(path); err == nil {
			err = rerr
		}
		if err != nil {
			return nil, err
		}
		pr.lat = append(pr.lat, lat)
		f.campaigns = append(f.campaigns, c)
	}
	pr.ops = len(f.campaigns)
	return pr, nil
}

// journaled runs the campaign over the journal at path.
func (f *fleetCollect) journaled(path string, out **fleet.Result) error {
	j, err := journal.Open(path)
	if err != nil {
		return err
	}
	cfg := f.cfg
	cfg.Journal = j
	res, err := fleet.Run(cfg)
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	*out = res
	return err
}

// verify checks that every device collected its reference trace, and that
// the resume replayed every device with the same TraceHash.
func (f *fleetCollect) verify(ctx context.Context, pr *phaseResult) error {
	var resume []time.Duration
	for k, c := range f.campaigns {
		for pass, res := range []*fleet.Result{c.run, c.resumed} {
			wantReplayed := pass == 1
			for i, d := range res.Devices {
				pr.attempted++
				switch {
				case d.Quarantined:
					pr.fail("campaign %d pass %d: device %s quarantined: %s", k, pass, d.Spec.Name, d.FailCause)
				case d.TraceHash != f.ref[i]:
					pr.fail("campaign %d pass %d: device %s TraceHash changed", k, pass, d.Spec.Name)
				case d.Replayed != wantReplayed:
					pr.fail("campaign %d pass %d: device %s replayed=%t", k, pass, d.Spec.Name, d.Replayed)
				}
			}
		}
		resume = append(resume, c.resumeWall)
	}
	pr.layer["journal.replay_ms"] = ms(quantile(resume, 0.50))
	h := sha256.New()
	fmt.Fprintf(h, "%q\n", f.ref)
	pr.digest = fmt.Sprintf("%x", h.Sum(nil))
	pr.named["fleet_wall_s"] = metric{quantile(pr.lat, 0.50).Seconds(), "s"}
	return nil
}

// layers collects a sample of the devices directly through trace.Collect,
// with the configuration fleet gives a collect-only device, and times
// journal appends of device-sized records.
func (f *fleetCollect) layers(ctx context.Context, tr *tracer, out map[string]float64) error {
	specs, err := fleet.Plan(f.cfg)
	if err != nil {
		return err
	}
	run := f.campaigns[len(f.campaigns)-1].run
	var payloads [][]byte
	for k := 0; k < min(layerUploadsN, len(specs)); k++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		spec := specs[k]
		sc := spec.Scale
		rcfg := sc.RunConfig(sc.StreamSeed(eval.StreamTested, 0), spec.Slowdown != 0)
		if spec.Slowdown > 0 {
			rcfg.Spy.SlowdownChannels = spec.Slowdown
		}
		for j := 0; j < spec.Tenants; j++ {
			rcfg.BackgroundTenants = append(rcfg.BackgroundTenants, sc.Profiled[j%len(sc.Profiled)])
		}
		t, err := collect(tr, spec.Victim, rcfg, int64(layerReqBase+k))
		if err != nil {
			return err
		}
		if t.SchedSlices != run.Devices[k].SchedSlices {
			return fmt.Errorf("device %s: direct collection simulated %d slices, the campaign %d",
				spec.Name, t.SchedSlices, run.Devices[k].SchedSlices)
		}
		d := run.Devices[k]
		d.Spec = fleet.DeviceSpec{}
		p, err := json.Marshal(d)
		if err != nil {
			return err
		}
		payloads = append(payloads, p)
	}
	return journalAppends(tr, filepath.Join(f.o.workDir, fmt.Sprintf("appends-%d", os.Getpid())), "fleet-device", payloads)
}

func (f *fleetCollect) close() {}
