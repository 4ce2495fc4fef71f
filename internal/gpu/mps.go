package gpu

import (
	"fmt"
	"math/rand"
)

// MPSEngine simulates the Multi-Process Service scheduler: all contexts share
// a single GPU context and kernels co-run under the Leftover policy
// reverse-engineered by Naghibijouybari et al. — a later kernel may only use
// the SMs the earlier (primary) kernel left idle. TensorFlow kernels occupy
// every SM, so a concurrent spy only makes progress in the gaps between
// victim kernels; this is why the paper's Figure 2 shows the spy obtaining a
// single CUPTI sample per whole training iteration.
type MPSEngine struct {
	cfg DeviceConfig
	rng *rand.Rand

	primary   Source
	secondary []*channel
	now       Nanos

	// OnSlice and OnKernelEnd mirror the Engine hooks, including the rule
	// that the record is engine-owned and valid only during the call.
	OnSlice     func(*SliceRecord)
	OnKernelEnd func(KernelSpan)

	rec SliceRecord
}

// NewMPSEngine builds an MPS-mode simulator. primaryCtx/primary is the
// dominant application (the victim's TensorFlow process).
func NewMPSEngine(cfg DeviceConfig, rng *rand.Rand, primary Source) (*MPSEngine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if rng == nil || primary == nil {
		return nil, fmt.Errorf("gpu: mps engine requires rng and primary source")
	}
	return &MPSEngine{cfg: cfg, rng: rng, primary: primary}, nil
}

// PrimaryCtx is the context id assigned to the primary (victim) source.
const PrimaryCtx ContextID = 0

// AddSecondary registers a leftover-policy channel for ctx (the spy).
func (m *MPSEngine) AddSecondary(ctx ContextID, src Source) {
	m.secondary = append(m.secondary, &channel{ctx: ctx, source: src})
}

// Now returns the current simulated time.
func (m *MPSEngine) Now() Nanos { return m.now }

// Run advances the co-scheduled simulation until the given time or until the
// primary source retires.
func (m *MPSEngine) Run(until Nanos) {
	for m.now < until {
		k, notBefore, ok := m.primary.Next(m.now)
		if !ok {
			// Victim finished: spy owns the whole device.
			m.advanceSecondary(m.now, until, 1)
			m.now = until
			return
		}
		if notBefore > m.now {
			gapEnd := notBefore
			if gapEnd > until {
				gapEnd = until
			}
			m.advanceSecondary(m.now, gapEnd, 1)
			m.now = gapEnd
			if m.now >= until {
				return
			}
		}

		d := k.Duration(m.cfg)
		end := m.now + d
		if end > until {
			end = until
		}
		leftover := float64(m.cfg.NumSMs-k.Blocks) / float64(m.cfg.NumSMs)
		if leftover < 0 {
			leftover = 0
		}
		m.advanceSecondary(m.now, end, leftover)

		rec := &m.rec
		rec.Ctx = PrimaryCtx
		rec.Kernel = k
		rec.Start = m.now
		rec.End = end
		rec.Completed = end == m.now+d
		rec.Counters = m.kernelCounters(k, end-m.now)
		if m.OnSlice != nil {
			m.OnSlice(rec)
		}
		if rec.Completed && m.OnKernelEnd != nil {
			m.OnKernelEnd(KernelSpan{Ctx: PrimaryCtx, Kernel: k, Start: rec.Start, End: rec.End})
		}
		m.now = end
	}
}

// advanceSecondary progresses every leftover channel through [from, to) at
// the given rate factor (1 = whole device available).
func (m *MPSEngine) advanceSecondary(from, to Nanos, rate float64) {
	if to <= from {
		return
	}
	for _, ch := range m.secondary {
		m.advanceChannel(ch, from, to, rate)
	}
}

func (m *MPSEngine) advanceChannel(ch *channel, from, to Nanos, rate float64) {
	now := from
	for now < to && !ch.done {
		if !ch.hasKernel {
			k, notBefore, ok := ch.source.Next(now)
			if !ok {
				ch.done = true
				return
			}
			ch.current = k
			ch.hasKernel = true
			ch.remaining = k.Duration(m.cfg)
			ch.notBefore = notBefore
			if ch.notBefore < now {
				ch.notBefore = now
			}
			ch.started = ch.notBefore
		}
		if ch.notBefore >= to {
			return
		}
		if ch.notBefore > now {
			now = ch.notBefore
		}
		if rate <= 0 {
			return // starved until the primary frees some SMs
		}
		span := to - now
		progress := Nanos(float64(span) * rate)
		run := ch.remaining
		if progress < run {
			run = progress
			span = to - now
		} else {
			span = Nanos(float64(run) / rate)
		}
		k := ch.current
		rec := &m.rec
		rec.Ctx = ch.ctx
		rec.Kernel = k
		rec.Start = now
		rec.End = now + span
		rec.Completed = false
		rec.Counters = m.kernelCounters(k, run)
		ch.remaining -= run
		now += span
		if ch.remaining <= 0 {
			rec.Completed = true
			if m.OnKernelEnd != nil {
				m.OnKernelEnd(KernelSpan{Ctx: ch.ctx, Kernel: k, Start: ch.started, End: now})
			}
			ch.hasKernel = false
			ch.notBefore = now + m.cfg.LaunchGap
		}
		if m.OnSlice != nil {
			m.OnSlice(rec)
		}
	}
}

// kernelCounters attributes counters for run nanoseconds of kernel execution
// under MPS (no context-switch refetch: contexts are shared).
func (m *MPSEngine) kernelCounters(k KernelProfile, run Nanos) CounterDelta {
	read, write, tex := k.TrafficRates(m.cfg)
	dur := float64(run)
	sec := m.cfg.SectorBytes

	readSec := noisy(read*dur/sec, m.cfg.NoiseFrac, m.rng)
	writeSec := noisy(write*dur/sec, m.cfg.NoiseFrac, m.rng)
	texSec := noisy(tex*dur/sec, m.cfg.NoiseFrac, m.rng)

	var d CounterDelta
	d.FBReadSectors = splitAcross(readSec, m.cfg.SubpImbalance, m.rng)
	d.FBWriteSectors = splitAcross(writeSec, m.cfg.SubpImbalance, m.rng)
	d.TexQueries = splitAcross(texSec, m.cfg.SubpImbalance, m.rng)
	d.L2ReadMisses = splitAcross(readSec*m.cfg.ColdMissFrac, m.cfg.SubpImbalance, m.rng)
	d.L2WriteMisses = splitAcross(writeSec*m.cfg.WriteMissFrac, m.cfg.SubpImbalance, m.rng)
	return d
}
