package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

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
// identity: planned index + derived seed. Collect-only campaigns never train,
// so their keys carry no model line and stay byte-compatible with journals
// written before sharing existed.
func deviceKeys(cfg Config, specs []DeviceSpec, share *modelShare) []string {
	campaign := fmt.Appendf(nil, "campaign|%s|%d|%t|%d|%d|%+v\n",
		cfg.Base.Name, cfg.Base.Seed, cfg.CollectOnly, cfg.SpyBudget, cfg.Retries, cfg.FleetChaos)
	h := sha256.New()
	var line, plan []byte
	var sum [sha256.Size]byte
	keys := make([]string, len(specs))
	for i, spec := range specs {
		// Neighbouring specs nearly always share a chaos plan, and its
		// reflective formatting is most of a key's cost.
		if i == 0 || spec.Scale.Chaos != specs[i-1].Scale.Chaos {
			plan = fmt.Appendf(plan[:0], "%+v", spec.Scale.Chaos)
		}
		line = fmt.Appendf(line[:0], "spec|%d|%s|%s|%s|%d|%d|%d|%s|%d|%d|%d|%s|%s\n",
			spec.Index, spec.Name, spec.Class, spec.Mix, spec.Tenants, spec.Slowdown,
			spec.Scale.Seed, spec.Scale.Name, spec.Scale.Iterations,
			int64(spec.Scale.IterGap), int64(spec.Scale.SamplePeriod),
			spec.Victim.Name, plan)
		if share != nil {
			if e := share.entryFor(spec); e != nil {
				line = fmt.Appendf(line, "models|shared|%d|%d\n", e.rep.Index, e.rep.Scale.Seed)
			}
		}
		h.Reset()
		h.Write(campaign)
		h.Write(line)
		keys[i] = hex.EncodeToString(h.Sum(sum[:0]))
	}
	return keys
}

// appendDeviceRecord durably journals one completed (or quarantined) device.
func appendDeviceRecord(j *journal.Journal, key string, r *DeviceResult) error {
	rec := recordOf(r)
	buf := recordBufs.Get().(*[]byte)
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
// matches). A corrupt payload under a matching key is an error — the key
// promises the producer wrote it, so unreadable bytes mean real damage past
// the CRC.
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
		if err := decodeRecord(rec.Payload, &recs[i]); err != nil {
			return nil, nil, fmt.Errorf("fleet: journal record for %s undecodable: %w", specs[i].Name, err)
		}
		found[i] = true
	}
	return recs, found, nil
}
