package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"slices"
	"time"

	"leakydnn/internal/attack"
	"leakydnn/internal/dnn"
	"leakydnn/internal/eval"
	"leakydnn/internal/par"
	"leakydnn/internal/trace"
)

// workbenchBuild is the workbench-build workload: eval.NewWorkbench at the
// tiny scale (collect profiled and tested traces, train every MoSConS head),
// then Models.ExtractTrace on every tested trace, back to back.
type workbenchBuild struct {
	o     options
	nproc int
	sc    eval.Scale
	// refs are the profiled then tested traces collected directly in setup,
	// serialized: every build must collect exactly these bytes.
	refs   [][]byte
	builds []buildOutcome
}

type buildOutcome struct {
	wb            *eval.Workbench
	fingerprints  []string
	letter, layer float64
	err           error
}

func newWorkbenchBuild(o options) *workbenchBuild {
	nproc := runtime.NumCPU()
	sc := eval.Tiny()
	sc.Seed = o.seed
	sc.Workers = nproc
	return &workbenchBuild{o: o, nproc: nproc, sc: sc}
}

func (w *workbenchBuild) setup(ctx context.Context, tr *tracer) error {
	models := append(append([]dnn.Model(nil), w.sc.Profiled...), w.sc.Tested...)
	refs, err := par.MapCtx(ctx, w.nproc, len(models), func(i int) ([]byte, error) {
		stream, k := eval.StreamProfiled, i
		if i >= len(w.sc.Profiled) {
			stream, k = eval.StreamTested, i-len(w.sc.Profiled)
		}
		t, err := collect(tr, models[i], w.sc.RunConfig(w.sc.StreamSeed(stream, k), true), -1)
		if err != nil {
			return nil, err
		}
		return encode(t)
	})
	w.refs = refs
	return err
}

func encode(t *trace.Trace) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := t.WriteTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// phase builds workbenches until --seconds have passed, at least once.
func (w *workbenchBuild) phase(ctx context.Context, tr *tracer) (*phaseResult, error) {
	pr := &phaseResult{layer: make(map[string]float64), named: make(map[string]metric)}
	w.builds = w.builds[:0]
	deadline := time.Now().Add(time.Duration(w.o.seconds) * time.Second)
	for op := int64(0); op == 0 || time.Now().Before(deadline); op++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		start := time.Now()
		root := tr.begin("eval.workbench_build", 0, op)
		id := tr.begin("eval.new_workbench", root, op)
		wb, err := eval.NewWorkbench(w.sc)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		b := buildOutcome{wb: wb}
		for _, t := range wb.Tested {
			id := tr.begin("workbench.extract_trace", root, op)
			rec, err := wb.Models.ExtractTrace(t)
			tr.end(id)
			if err != nil {
				b.err = err
				break
			}
			letter, layer := accuracy(rec, t)
			b.fingerprints = append(b.fingerprints, rec.Fingerprint())
			b.letter += letter / float64(len(wb.Tested))
			b.layer += layer / float64(len(wb.Tested))
		}
		tr.end(root)
		pr.lat = append(pr.lat, time.Since(start))
		w.builds = append(w.builds, b)
	}
	pr.ops = len(w.builds)
	return pr, nil
}

// verify checks that every build collected the reference traces, extracted
// every tested trace, and made the same decisions as the first build.
func (w *workbenchBuild) verify(ctx context.Context, pr *phaseResult) error {
	first := w.builds[0]
	var collect, train, overlap []float64
	for i, b := range w.builds {
		pr.attempted += 1 + len(w.sc.Tested)
		if b.err != nil {
			pr.fail("build %d: extraction: %v", i, b.err)
			pr.lat[i] = failedLatency
			continue
		}
		for k, t := range append(append([]*trace.Trace(nil), b.wb.Profiled...), b.wb.Tested...) {
			got, err := encode(t)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, w.refs[k]) {
				pr.fail("build %d: trace %d differs from the one collected directly", i, k)
			}
		}
		if !slices.Equal(b.fingerprints, first.fingerprints) || b.letter != first.letter || b.layer != first.layer {
			pr.fail("build %d: fingerprints or accuracy differ from build 0", i)
		}
		tm := b.wb.Timings
		collect = append(collect, tm.Collect.Seconds())
		train = append(train, tm.Train.Seconds())
		overlap = append(overlap, (tm.Collect + tm.Train - tm.Wall).Seconds())
	}
	pr.layer["eval.collect_s"] = median(collect)
	pr.layer["eval.train_s"] = median(train)
	pr.layer["eval.overlap_s"] = median(overlap)

	h := sha256.New()
	fmt.Fprintf(h, "%q %.6f %.6f\n", first.fingerprints, first.letter, first.layer)
	pr.digest = fmt.Sprintf("%x", h.Sum(nil))
	pr.named["workbench_wall_s"] = metric{quantile(pr.lat, 0.50).Seconds(), "s"}
	pr.named["letter_acc"] = metric{first.letter, "ratio"}
	pr.named["layer_acc"] = metric{first.layer, "ratio"}
	return nil
}

// layers retrains the last build's models with TrainModels alone, and
// extracts its tested traces stage by stage.
func (w *workbenchBuild) layers(ctx context.Context, tr *tracer, out map[string]float64) error {
	last := w.builds[len(w.builds)-1]
	wb := last.wb
	start := time.Now()
	id := tr.begin("attack.train_models", 0, -1)
	models, err := attack.TrainModels(wb.Profiled, w.sc.AttackConfig())
	tr.end(id)
	if err != nil {
		return err
	}
	out["attack.train_s"] = time.Since(start).Seconds()
	for k := 0; k < layerUploadsN; k++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		i := k % len(wb.Tested)
		rec, err := stagedExtract(tr, models, wb.Tested[i], int64(layerReqBase+k))
		if err != nil {
			return err
		}
		if rec.Fingerprint() != last.fingerprints[i] {
			return fmt.Errorf("tested trace %d: models from TrainModels alone decide differently from the workbench's", i)
		}
	}
	return nil
}

func (w *workbenchBuild) close() {}
