package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"

	"leakydnn/internal/chaos"
	"leakydnn/internal/journal"
)

// recordKind namespaces fleet records in a journal shared with other
// producers (mosconsd writes serve-extract records into the same file).
const recordKind = "fleet-device"

// deviceKeys canonically hashes everything each device's result is a pure
// function of: the campaign identity (base scale name + seed, mode, budget,
// retry policy, fleet fault plan) and the resolved spec (index, class, mix,
// tenancy, spy allocation, derived seed, workload, per-run chaos plan). The
// enumeration is explicit field by field — never reflection over whole
// structs — because eval.Scale carries unexported pool state and function
// values whose formatting is nondeterministic. Two runs agree on a key iff
// re-executing the device would reproduce the recorded result byte for byte.
// The campaign line is formatted once and every key hashes it again, so the
// key bytes match journals written one device at a time.
//
// Extraction results additionally depend on where the device's model set came
// from, so extraction campaigns (share non-nil) append the representative's
// identity: planned index + derived seed, plus the LSTM minibatch size when
// it exceeds 1 (batch 0 and 1 train byte-identical models, so their keys
// stay byte-compatible with journals written before the batch was keyed).
// Collect-only campaigns never train, so their keys carry no model line and
// stay byte-compatible with journals written before sharing existed.
func deviceKeys(cfg Config, specs []DeviceSpec, share *modelShare) []string {
	campaign := fmt.Appendf(nil, "campaign|%s|%d|%t|%d|%d|",
		cfg.Base.Name, cfg.Base.Seed, cfg.CollectOnly, cfg.SpyBudget, cfg.Retries)
	campaign = append(appendFleetPlanKey(campaign, cfg.FleetChaos), '\n')
	h := sha256.New()
	var line []byte
	var sum [sha256.Size]byte
	keys := make([]string, len(specs))
	for i, spec := range specs {
		line = fmt.Appendf(line[:0], "spec|%d|%s|%s|%s|%d|%d|%d|%s|%d|%d|%d|%s|",
			spec.Index, spec.Name, spec.Class, spec.Mix, spec.Tenants, spec.Slowdown,
			spec.Scale.Seed, spec.Scale.Name, spec.Scale.Iterations,
			int64(spec.Scale.IterGap), int64(spec.Scale.SamplePeriod),
			spec.Victim.Name)
		line = append(appendPlanKey(line, spec.Scale.Chaos), '\n')
		if share != nil {
			if e := share.entryFor(spec); e != nil {
				line = fmt.Appendf(line, "models|shared|%d|%d", e.rep.Index, e.rep.Scale.Seed)
				if b := e.rep.Scale.Attack.Batch; b > 1 {
					line = fmt.Appendf(line, "|%d", b)
				}
				line = append(line, '\n')
			}
		}
		h.Reset()
		h.Write(campaign)
		h.Write(line)
		keys[i] = hex.EncodeToString(h.Sum(sum[:0]))
	}
	return keys
}

// The fault plans enter the key as the bytes fmt's %+v printed for them
// while it formatted the key, field by field, so keys of journals written
// then still match. The fleet owns these bytes: editing a chaos struct
// cannot move a key, and a field added to a plan must be added here, or
// plans differing only in it share keys. Fields the plans no longer have
// are written as the zeros every production plan held: op stalls, victim
// resets, finite co-tenant schedules and the fleet fault seed were only
// ever set by tests.
func appendPlanKey(b []byte, p chaos.Plan) []byte {
	b = keyInt(b, "{Seed:", p.Seed)
	b = keyFloat(b, " DropRate:", p.DropRate)
	b = keyFloat(b, " DupRate:", p.DupRate)
	b = keyFloat(b, " JitterFrac:", p.JitterFrac)
	b = keyFloat(b, " SaturateFrac:", p.SaturateFrac)
	b = keyFloat(b, " ArmFailRate:", p.ArmFailRate)
	b = keyInt(b, " ArmMaxRetries:", int64(p.ArmMaxRetries))
	b = keyFloat(b, " PreemptGapRate:", p.PreemptGapRate)
	b = keyInt(b, " PreemptGapLen:", int64(p.PreemptGapLen))
	b = keyFloat(b, " ClockSkewFrac:", p.ClockSkewFrac)
	b = keyFloat(b, " TruncateFrac:", p.TruncateFrac)
	s := p.Sched
	b = keyInt(b, " Sched:{Seed:", s.Seed)
	b = keyFloat(b, " StallRate:", s.StallRate)
	b = keyFloat(b, " StallFrac:", s.StallFrac)
	b = append(b, " OpStallRate:0 OpStallFrac:0 VictimResets:0"...)
	b = keyInt(b, " Resets:", int64(s.Resets))
	b = keyInt(b, " TenantJoins:", int64(s.TenantJoins))
	b = keyInt(b, " TenantLeaves:", int64(s.TenantLeaves))
	d := p.Device
	b = keyFloat(b, "} Device:{CrashFrac:", d.CrashFrac)
	b = keyFloat(b, " SpyKillFrac:", d.SpyKillFrac)
	b = keyFloat(b, " ArmLossFrac:", d.ArmLossFrac)
	return append(b, " TenantIterations:0}}"...)
}

// appendFleetPlanKey appends the campaign's fleet fault plan the way
// appendPlanKey appends a per-run plan.
func appendFleetPlanKey(b []byte, p chaos.FleetPlan) []byte {
	b = append(b, "{Seed:0"...)
	b = keyFloat(b, " CrashProb:", p.CrashProb)
	b = keyFloat(b, " SpyKillProb:", p.SpyKillProb)
	b = keyFloat(b, " ArmLossProb:", p.ArmLossProb)
	b = append(b, " TenantIterations:0"...)
	b = keyInt(b, " FaultyAttempts:", int64(p.FaultyAttempts))
	return append(b, '}')
}

// keyInt and keyFloat append one field of a plan's key bytes: its prefix,
// then the value as fmt's %v prints it.
func keyInt(b []byte, prefix string, v int64) []byte {
	return strconv.AppendInt(append(b, prefix...), v, 10)
}

func keyFloat(b []byte, prefix string, v float64) []byte {
	return strconv.AppendFloat(append(b, prefix...), v, 'g', -1, 64)
}

// appendDeviceRecord durably journals one completed (or quarantined) device.
func appendDeviceRecord(j *journal.Journal, key string, r *DeviceResult) error {
	rec := recordOf(r)
	buf := recordBufs.Get()
	*buf = encodeRecord((*buf)[:0], &rec)
	err := j.Append(journal.Record{Kind: recordKind, Key: key, Payload: *buf})
	recordBufs.Put(buf)
	if err != nil {
		return fmt.Errorf("fleet: journal %s: %w", r.Spec.Name, err)
	}
	return nil
}

// replayJournal matches the journal's replayed records against the live
// plan's keys and returns the decoded records, spec-indexed, with a flag for
// each spec that has one (both nil when nothing matched). Records for other
// kinds, other campaigns, or specs no longer in the plan are ignored (the
// journal is append-only; a changed plan simply re-executes what no longer
// matches), and so are records in a retired version: their devices run
// again, and a retired record never hides a live one under the same key. A
// corrupt payload under a matching key is an error — the key promises the
// producer wrote it, so unreadable bytes mean real damage past the CRC.
func replayJournal(j *journal.Journal, specs []DeviceSpec, keys []string) ([]deviceRecord, []bool, error) {
	loaded := j.Records()
	if len(loaded) == 0 {
		return nil, nil, nil
	}
	index := make(map[string]int, len(keys))
	for i, k := range keys {
		index[k] = i
	}
	var recs []deviceRecord
	var found []bool
	for _, rec := range loaded {
		if rec.Kind != recordKind {
			continue
		}
		i, ok := index[rec.Key]
		if !ok {
			continue
		}
		if recs == nil {
			recs, found = make([]deviceRecord, len(specs)), make([]bool, len(specs))
		}
		err := decodeRecord(rec.Payload, &recs[i])
		if errors.Is(err, errRetiredRecord) {
			continue
		}
		if err != nil {
			return nil, nil, fmt.Errorf("fleet: journal record for %s undecodable: %w", specs[i].Name, err)
		}
		found[i] = true
	}
	return recs, found, nil
}
