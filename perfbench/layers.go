package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"leakydnn/internal/attack"
	"leakydnn/internal/dnn"
	"leakydnn/internal/journal"
	"leakydnn/internal/lstm"
	"leakydnn/internal/trace"
)

// The per-layer passes extract layerUploadsN traces stage by stage and time
// journalAppendsN appends. Their request IDs start at layerReqBase, apart
// from those of the timed phases, so the spans of both can sit in one file.
const (
	layerUploadsN   = 24
	journalAppendsN = 64
	layerReqBase    = 1 << 20
)

// stagedExtract extracts one trace twice: once through ExtractTrace, counting
// its allocations, and once stage by stage through the public stage
// functions — FeatureMatrix, SplitSegmented, Mlong/Mop over the voting
// ranges, the five Mhp heads — each under its own span. The staged
// predictions must equal the whole call's, or the spans would time a
// different computation. It returns the whole call's recovery.
func stagedExtract(tr *tracer, m *attack.Models, t *trace.Trace, req int64) (*attack.Recovery, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id := tr.begin("attack.extract", 0, req)
	rec, err := m.ExtractTrace(t)
	tr.end(id)
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, err
	}
	tr.add("attack.extract_allocs", float64(after.Mallocs-before.Mallocs))
	tr.add("attack.extract_calls", 1)

	id = tr.begin("attack.featurize", 0, req)
	features := attack.FeatureMatrix(m.Scaler, t.Samples)
	tr.end(id)

	id = tr.begin("attack.split", 0, req)
	split, err := m.SplitSegmented(features, trace.SegmentBounds(t.Samples, t.Reanchors))
	tr.end(id)
	if err != nil {
		return nil, err
	}
	iters := split.Valid
	if len(iters) == 0 {
		iters = split.All
	}
	if len(iters) == 0 {
		return nil, errors.New("staged split found no iterations")
	}
	used := make([]attack.Range, m.Cfg.VoteIterations)
	for j := range used {
		used[j] = iters[min(j, len(iters)-1)]
	}
	if used[0] != rec.Base {
		return nil, fmt.Errorf("staged split chose base %v, ExtractTrace %v", used[0], rec.Base)
	}

	predict := func(name string, net *lstm.Network, want [][]int) error {
		id := tr.begin(name, 0, req)
		defer tr.end(id)
		for j, r := range used {
			got, err := net.Predict(features[r.Start:r.End])
			if err != nil {
				return err
			}
			if !slices.Equal(got, want[j]) {
				return fmt.Errorf("staged %s differs from ExtractTrace at iteration %d", name, j)
			}
		}
		return nil
	}
	if err := predict("lstm.mlong", m.Long, rec.PreVoteLong); err != nil {
		return nil, err
	}
	if err := predict("lstm.mop", m.Op, rec.PreVoteOp); err != nil {
		return nil, err
	}

	base := features[rec.Base.Start:rec.Base.End]
	id = tr.begin("lstm.mhp", 0, req)
	defer tr.end(id)
	for k, head := range m.HP {
		if head == nil {
			continue
		}
		got, err := head.Predict(base)
		if err != nil {
			return nil, err
		}
		if !slices.Equal(got, rec.HPClasses[k]) {
			return nil, fmt.Errorf("staged Mhp[%d] differs from ExtractTrace", k)
		}
	}
	return rec, nil
}

// collect runs one victim co-run under a trace.collect span, counting the
// scheduler slices it simulated.
func collect(tr *tracer, model dnn.Model, rcfg trace.RunConfig, req int64) (*trace.Trace, error) {
	start := time.Now()
	id := tr.begin("trace.collect", 0, req)
	t, err := trace.Collect(model, rcfg)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	tr.add("trace.collect_ns", float64(time.Since(start)))
	tr.add("gpu.sched_slices", float64(t.SchedSlices))
	return t, nil
}

// journalAppends times journalAppendsN appends of the given payloads, in
// turn, to a fresh journal.
func journalAppends(tr *tracer, dir, kind string, payloads [][]byte) error {
	if len(payloads) == 0 {
		return fmt.Errorf("no %s payloads to append", kind)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	j, err := journal.Open(filepath.Join(dir, "appends.jrnl"))
	if err != nil {
		return err
	}
	for i := 0; i < journalAppendsN; i++ {
		rec := journal.Record{Kind: kind, Key: fmt.Sprintf("append-%d", i), Payload: payloads[i%len(payloads)]}
		id := tr.begin("journal.append", 0, int64(layerReqBase+i))
		err := j.Append(rec)
		tr.end(id)
		if err != nil {
			j.Close()
			return err
		}
	}
	return j.Close()
}

// accuracy scores a recovery against the trace's ground truth.
func accuracy(rec *attack.Recovery, t *trace.Trace) (letter, layer float64) {
	_, letter = attack.LetterAccuracy(rec.Letters, attack.LetterTruth(t.Labels(), rec.Base))
	layer, _ = attack.LayerAccuracy(rec.Layers, t.Model)
	return letter, layer
}
