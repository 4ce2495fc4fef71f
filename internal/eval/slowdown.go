package eval

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"leakydnn/internal/gpu"
	"leakydnn/internal/par"
	"leakydnn/internal/spy"
	"leakydnn/internal/tfsim"
)

// SlowdownResult reproduces §V-F: the victim's per-iteration wall time with
// no spy, with a single probe kernel, and under the full eight-kernel
// slow-down attack, plus the spy's own throughput degradation.
type SlowdownResult struct {
	// BaselineIter is the victim's iteration wall time alone.
	BaselineIter gpu.Nanos
	// OneKernelIter is the iteration wall time with just the probe.
	OneKernelIter gpu.Nanos
	// AttackIter is the iteration wall time under the full attack.
	AttackIter gpu.Nanos
	// VictimSlowdown1 and VictimSlowdownAttack are the wall-time ratios.
	VictimSlowdown1, VictimSlowdownAttack float64
	// SpySlowdown is the spy's aggregate throughput degradation caused by
	// the victim (paper: < 3x).
	SpySlowdown float64
}

// victimIterTime runs the first tested model on a fresh engine, lets attach
// (when non-nil) deploy a spy beside it, and returns the mean per-iteration
// wall time.
func (sc Scale) victimIterTime(seed int64, attach func(*gpu.Engine) error) (gpu.Nanos, error) {
	sess, err := tfsim.NewSession(sc.Tested[0], tfsim.Config{
		Iterations: sc.Iterations,
		IterGap:    sc.IterGap,
	}, sc.Device)
	if err != nil {
		return 0, err
	}
	eng, err := gpu.NewEngine(sc.Device, rand.New(rand.NewSource(seed)))
	if err != nil {
		return 0, err
	}
	tl := &tfsim.Timeline{}
	done := 0
	eng.OnKernelEnd = func(s gpu.KernelSpan) {
		tl.Observe(s)
		if s.Ctx == trace2VictimCtx {
			done++
		}
	}
	if !eng.AddChannel(trace2VictimCtx, sess.Source()) {
		return 0, fmt.Errorf("eval: scheduler rejected victim channel (ctx %d)", trace2VictimCtx)
	}
	if attach != nil {
		if err := attach(eng); err != nil {
			return 0, err
		}
	}
	// The horizon only bounds a run that fails: a victim starved this long
	// is reported rather than waited for.
	horizon := (sess.IterationDuration() + sc.IterGap) * gpu.Nanos(sc.Iterations) * 400
	target := sess.OpsPerIteration() * sc.Iterations
	step := sess.IterationDuration() + gpu.Millisecond
	for done < target && eng.Now() < horizon {
		eng.Run(eng.Now() + step)
	}
	if done < target {
		return 0, fmt.Errorf("eval: victim did not finish within horizon")
	}

	var total gpu.Nanos
	var n int
	for iter := 0; iter < sc.Iterations; iter++ {
		start, end, ok := tl.IterationSpan(iter)
		if !ok {
			continue
		}
		total += end - start
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("eval: no iterations observed")
	}
	return total / gpu.Nanos(n), nil
}

// probeSpy attaches the time-sliced probe spy, with or without its
// eight-kernel slow-down set.
func (sc Scale) probeSpy(slowdown bool) func(*gpu.Engine) error {
	return func(eng *gpu.Engine) error {
		prog, err := spy.NewProgram(spy.Config{
			Ctx:          trace2SpyCtx,
			Probe:        spy.Conv200,
			Slowdown:     slowdown,
			TimeScale:    sc.TimeScale,
			SamplePeriod: sc.SamplePeriod,
		})
		if err != nil {
			return err
		}
		return prog.AttachTimeSliced(eng)
	}
}

// sweepSpy attaches nk copies of a slow-down kernel with the given geometry.
func (sc Scale) sweepSpy(nk, blocks, threads int) func(*gpu.Engine) error {
	return func(eng *gpu.Engine) error {
		for i := 0; i < nk; i++ {
			k := gpu.KernelProfile{
				Name:            fmt.Sprintf("spy.sweep.%d", i),
				FixedDuration:   gpu.Nanos(float64(5*gpu.Millisecond) * sc.TimeScale),
				ReadBytes:       float64(4<<20) * sc.TimeScale,
				WriteBytes:      float64(1<<20) * sc.TimeScale,
				WorkingSetBytes: float64(2<<20) * sc.TimeScale,
				Blocks:          blocks,
				ThreadsPerBlock: threads,
			}
			if !eng.AddChannel(trace2SpyCtx, &gpu.RepeatSource{Kernel: k}) {
				return fmt.Errorf("eval: scheduler rejected sweep spy channel %d (ctx %d)", i, trace2SpyCtx)
			}
		}
		return nil
	}
}

// spyThroughput measures the spy's probe-completion rate with and without
// the victim and returns completions per simulated second.
func (sc Scale) spyThroughput(victimOn bool, seed int64) (float64, error) {
	eng, err := gpu.NewEngine(sc.Device, rand.New(rand.NewSource(seed)))
	if err != nil {
		return 0, err
	}
	prog, err := spy.NewProgram(spy.Config{
		Ctx:          trace2SpyCtx,
		Probe:        spy.Conv200,
		Slowdown:     true,
		TimeScale:    sc.TimeScale,
		SamplePeriod: sc.SamplePeriod,
	})
	if err != nil {
		return 0, err
	}
	spyDone := 0
	eng.OnKernelEnd = func(s gpu.KernelSpan) {
		if s.Ctx == trace2SpyCtx {
			spyDone++
		}
	}
	if victimOn {
		sess, err := tfsim.NewSession(sc.Tested[0], tfsim.Config{
			Iterations: 1 << 30, // endless training
			IterGap:    sc.IterGap,
		}, sc.Device)
		if err != nil {
			return 0, err
		}
		if !eng.AddChannel(trace2VictimCtx, sess.Source()) {
			return 0, fmt.Errorf("eval: scheduler rejected victim channel (ctx %d)", trace2VictimCtx)
		}
	}
	if err := prog.AttachTimeSliced(eng); err != nil {
		return 0, err
	}
	horizon := sc.SamplePeriod * 2000
	eng.Run(horizon)
	return float64(spyDone) / (float64(horizon) / 1e9), nil
}

// SlowdownImpact measures the performance effects of §V-F. The five
// measurements run on independently seeded engines (stream indices 0..4) and
// fan out across the worker pool.
func SlowdownImpact(sc Scale) (*SlowdownResult, error) {
	type measurement struct {
		iter gpu.Nanos
		thr  float64
	}
	got, err := par.MapCtx(context.Background(), sc.Workers, 5, func(i int) (measurement, error) {
		switch i {
		case 0:
			t, err := sc.victimIterTime(sc.StreamSeed(StreamSlowdownImpact, i), nil)
			return measurement{iter: t}, err
		case 1, 2:
			t, err := sc.victimIterTime(sc.StreamSeed(StreamSlowdownImpact, i), sc.probeSpy(i == 2))
			return measurement{iter: t}, err
		default:
			thr, err := sc.spyThroughput(i == 4, sc.StreamSeed(StreamSlowdownImpact, i))
			return measurement{thr: thr}, err
		}
	})
	if err != nil {
		return nil, err
	}
	baseline, one, attacked := got[0].iter, got[1].iter, got[2].iter
	spyAlone, spyContended := got[3].thr, got[4].thr
	res := &SlowdownResult{
		BaselineIter:         baseline,
		OneKernelIter:        one,
		AttackIter:           attacked,
		VictimSlowdown1:      float64(one) / float64(baseline),
		VictimSlowdownAttack: float64(attacked) / float64(baseline),
	}
	if spyContended > 0 {
		res.SpySlowdown = spyAlone / spyContended
	}
	return res, nil
}

// Render prints the §V-F numbers.
func (r *SlowdownResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "§V-F performance impact of the attack\n")
	fmt.Fprintf(&b, "  victim iteration alone:        %v\n", r.BaselineIter)
	fmt.Fprintf(&b, "  with 1 spy kernel:             %v (%.2fx)\n", r.OneKernelIter, r.VictimSlowdown1)
	fmt.Fprintf(&b, "  with 8-kernel slow-down:       %v (%.2fx)\n", r.AttackIter, r.VictimSlowdownAttack)
	fmt.Fprintf(&b, "  spy self slow-down:            %.2fx\n", r.SpySlowdown)
	return b.String()
}

// SweepPoint is one configuration of the slow-down parameter search (§IV).
type SweepPoint struct {
	Kernels, Blocks, Threads int
	VictimSlowdown           float64
}

// SlowdownSweep explores <#kernels, #blocks, #threads> like the paper's
// hundreds-of-combinations search, demonstrating the slow-down upper bound.
func SlowdownSweep(sc Scale, kernels, blocks, threads []int) ([]SweepPoint, error) {
	baseline, err := sc.victimIterTime(sc.StreamSeed(StreamSlowdownSweepBaseline, 0), nil)
	if err != nil {
		return nil, err
	}
	// Seeds are assigned in grid order before the runs fan out, preserving
	// the serial sweep's seed for every point.
	type task struct {
		nk, nb, nt int
		seed       int64
	}
	var tasks []task
	for _, nk := range kernels {
		for _, nb := range blocks {
			for _, nt := range threads {
				seed := sc.StreamSeed(StreamSlowdownSweep, len(tasks))
				tasks = append(tasks, task{nk: nk, nb: nb, nt: nt, seed: seed})
			}
		}
	}
	return par.MapCtx(context.Background(), sc.Workers, len(tasks), func(i int) (SweepPoint, error) {
		t := tasks[i]
		iter, err := sc.victimIterTime(t.seed, sc.sweepSpy(t.nk, t.nb, t.nt))
		if err != nil {
			return SweepPoint{}, err
		}
		return SweepPoint{
			Kernels: t.nk, Blocks: t.nb, Threads: t.nt,
			VictimSlowdown: float64(iter) / float64(baseline),
		}, nil
	})
}

// RenderSweep prints the sweep points.
func RenderSweep(points []SweepPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "§IV slow-down parameter sweep (victim slow-down ratio)\n")
	for _, p := range points {
		fmt.Fprintf(&b, "  kernels=%-3d blocks=%-3d threads=%-5d -> %.2fx\n",
			p.Kernels, p.Blocks, p.Threads, p.VictimSlowdown)
	}
	return b.String()
}
