// Package fleet scales the single-device MoSConS evaluation out to a
// datacenter of victims: hundreds of independently seeded co-runs (one
// victim + spy engine per device), heterogeneous device configurations and
// tenancy mixes, a shared spy channel budget split across devices, and one
// trained model set per victim. All devices share one par.Pool, so the fleet
// saturates a multi-core host without oversubscribing it.
//
// The load-bearing contract is per-device determinism: device K's trace and
// extraction are a pure function of its DeviceSpec, which itself depends
// only on the base scale and K — never on how many other devices run
// alongside it or how many workers execute them. Seeds come from the keyed
// splitmix64 derivation (eval.DeriveSeed with StreamFleetDevice), and the
// budget allocator is prefix-stable greedy, so growing the fleet or changing
// the worker count leaves every existing device's results byte-identical.
// The tests pin this with SHA-256 golden hashes.
package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"leakydnn/internal/attack"
	"leakydnn/internal/chaos"
	"leakydnn/internal/dnn"
	"leakydnn/internal/eval"
	"leakydnn/internal/gpu"
	"leakydnn/internal/journal"
	"leakydnn/internal/par"
	"leakydnn/internal/trace"
)

// fullSlowdown is the complete slow-down deployment: the paper's eight
// kernels. A device allocated this many (or an unlimited allocation) runs
// the full attack.
const fullSlowdown = 8

// DeviceClass is one hardware/driver flavour in a heterogeneous fleet. Apply
// derives the class's DeviceConfig from the base scale's (already
// time-scaled) device.
type DeviceClass struct {
	Name  string
	Apply func(gpu.DeviceConfig) gpu.DeviceConfig
}

// TenancyMix fixes how many background training tenants share a device with
// the victim and the spy (§VI limitation 5's "more than two users").
type TenancyMix struct {
	Name    string
	Tenants int
}

// DefaultClasses is a four-flavour fleet: stock hardware, a faster context
// switcher, a smaller cache hierarchy, and a hardened scheduler whose
// channel cap disarms the slow-down attack wholesale (§VI).
func DefaultClasses() []DeviceClass {
	return []DeviceClass{
		{Name: "stock", Apply: func(d gpu.DeviceConfig) gpu.DeviceConfig { return d }},
		{Name: "fastswitch", Apply: func(d gpu.DeviceConfig) gpu.DeviceConfig {
			d.SwitchCost /= 2
			d.SliceQuantum = d.SliceQuantum * 3 / 4
			return d
		}},
		{Name: "smallcache", Apply: func(d gpu.DeviceConfig) gpu.DeviceConfig {
			d.L2Bytes /= 2
			d.TexCacheBytes /= 2
			return d
		}},
		{Name: "capped", Apply: func(d gpu.DeviceConfig) gpu.DeviceConfig {
			// Probe (1 channel) fits; the eight-kernel slow-down batch does
			// not, so the all-or-nothing arming leaves this class probe-only.
			d.MaxChannelsPerCtx = 6
			return d
		}},
	}
}

// DefaultMixes covers the paper's two-user setting plus two heavier
// co-locations.
func DefaultMixes() []TenancyMix {
	return []TenancyMix{
		{Name: "solo", Tenants: 0},
		{Name: "duo", Tenants: 1},
		{Name: "quad", Tenants: 3},
	}
}

// Config describes a fleet run.
type Config struct {
	// Base is the per-device experiment template. Base.Workers bounds the
	// shared pool; Base.Seed is the root every device seed derives from.
	Base eval.Scale
	// Devices is the fleet size.
	Devices int
	// Classes and Mixes are cycled across devices (mixes fastest, so every
	// small prefix already spans the tenancy axis). Nil selects the defaults.
	Classes []DeviceClass
	Mixes   []TenancyMix
	// SpyBudget is the total number of slow-down channels the adversary may
	// arm across the whole fleet (shared infrastructure quota). Devices are
	// funded greedily in index order, eight channels each, so an existing
	// device's allocation never changes when the fleet grows. Zero or
	// negative means unlimited: every device runs the full attack.
	SpyBudget int
	// CollectOnly skips training and extraction: each device only runs its
	// victim co-run. This is the benchmark mode — the engine's aggregate
	// slice throughput without the attack pipeline on top.
	CollectOnly bool

	// FleetChaos assigns device-level faults (whole-device crash, spy kill,
	// arming-session loss, finite co-tenant schedules) across the campaign;
	// see chaos.FleetPlan. The zero plan injects nothing and keeps every
	// device's collection byte-identical to a fault-free fleet.
	FleetChaos chaos.FleetPlan
	// Retries bounds re-attempts per device after a crash or failure; the
	// k-th retry draws its seed from the keyed retry stream
	// (DeriveSeed(spec seed, StreamFleetRetry, k)), so a retried device can
	// never perturb — or be perturbed by — any other device's collection.
	// A device that exhausts every retry is quarantined with its cause, and
	// the fleet delivers the survivors (partial results, never an abort).
	Retries int
	// RetryBackoff is the base host-side delay before a retry, doubling per
	// attempt and capped at 8x. Zero retries immediately (tests).
	RetryBackoff time.Duration
	// Watchdog is the wall-clock deadline per device attempt: an attempt
	// that exceeds it is abandoned and counted as "watchdog-timeout",
	// triggering the retry path. Zero disables the watchdog.
	Watchdog time.Duration
	// Journal, when non-nil, records each completed device durably and skips
	// devices whose records were replayed at open — the crash-safe
	// checkpoint/resume path. The skipped devices' results are restored
	// from the journal byte-identically (their collections are pure
	// functions of the spec, so replay ≡ re-execution).
	Journal *journal.Journal
}

// DeviceSpec is one device's fully resolved plan entry: everything its run
// depends on, and nothing that depends on the rest of the fleet.
type DeviceSpec struct {
	Index int
	Name  string
	Class string
	Mix   string
	// Tenants is the background-tenant count from the mix.
	Tenants int
	// Slowdown is the spy's channel allocation: -1 unlimited (full attack),
	// 0 probe-only, 1..8 a capped deployment.
	Slowdown int
	// Scale is the per-device experiment: class-mutated device config and a
	// derived seed. Scale.Seed = DeriveSeed(base, StreamFleetDevice, Index).
	Scale eval.Scale
	// Victim is this device's training workload.
	Victim dnn.Model
}

// Plan expands a Config into per-device specs. The expansion is a pure
// function of (Base, Devices, Classes, Mixes, SpyBudget) with the prefix
// property: Plan(N+1)[:N] equals Plan(N) element for element.
func Plan(cfg Config) ([]DeviceSpec, error) {
	if cfg.Devices <= 0 {
		return nil, fmt.Errorf("fleet: Devices must be >= 1, got %d", cfg.Devices)
	}
	if len(cfg.Base.Tested) == 0 {
		return nil, fmt.Errorf("fleet: base scale %q has no tested models", cfg.Base.Name)
	}
	classes := cfg.Classes
	if len(classes) == 0 {
		classes = DefaultClasses()
	}
	mixes := cfg.Mixes
	if len(mixes) == 0 {
		mixes = DefaultMixes()
	}
	specs := make([]DeviceSpec, cfg.Devices)
	for i := range specs {
		class := classes[(i/len(mixes))%len(classes)]
		mix := mixes[i%len(mixes)]
		sc := cfg.Base
		sc.Device = class.Apply(cfg.Base.Device)
		sc.Seed = eval.DeriveSeed(cfg.Base.Seed, eval.StreamFleetDevice, int64(i))
		alloc := -1
		if cfg.SpyBudget > 0 {
			// Greedy prefix-stable split: device i's share depends only on i
			// and the budget, never on the fleet size.
			remaining := cfg.SpyBudget - i*fullSlowdown
			switch {
			case remaining >= fullSlowdown:
				alloc = fullSlowdown
			case remaining > 0:
				alloc = remaining
			default:
				alloc = 0
			}
		}
		specs[i] = DeviceSpec{
			Index:    i,
			Name:     fmt.Sprintf("dev%03d-%s-%s", i, class.Name, mix.Name),
			Class:    class.Name,
			Mix:      mix.Name,
			Tenants:  mix.Tenants,
			Slowdown: alloc,
			Scale:    sc,
			Victim:   cfg.Base.Tested[i%len(cfg.Base.Tested)],
		}
	}
	return specs, nil
}

// DeviceResult is one device's outcome.
type DeviceResult struct {
	Spec DeviceSpec
	// LetterAcc, LayerAcc and HPAcc are the per-victim extraction
	// accuracies (zero in CollectOnly mode or when extraction failed).
	LetterAcc, LayerAcc, HPAcc float64
	// SamplesPerIter is the spy's yield on this device.
	SamplesPerIter float64
	// Coverage and Health are the extraction- and collection-level
	// degradation reports.
	Coverage attack.Coverage
	Health   *trace.Health
	// SchedSlices counts the device engine's scheduler grants (the fleet
	// benchmark's throughput numerator).
	SchedSlices int
	// TraceHash pins the victim trace's bytes; ExtractHash pins the
	// recovered structure. Together they are the determinism contract.
	TraceHash   string
	ExtractHash string
	// Fingerprint is the canonical attack.Recovery fingerprint (empty in
	// CollectOnly mode or when extraction failed) — the cross-run identity
	// the journal resume path is pinned by.
	Fingerprint string
	// ExtractErr records a per-device extraction failure (a damaged trace
	// is a result, not a fleet abort).
	ExtractErr string
	// ModelRep is the provenance of the model set this device's extraction
	// used: the index of the device whose spec the set was trained from. The
	// group representative, which trained the set, reports its own index; -1
	// means no model set was involved (collect-only, or quarantined before
	// training).
	ModelRep int
	// Attempts is how many attempts this device ran (1 = clean first try).
	Attempts int
	// Quarantined marks a device that exhausted every retry; FailCause
	// classifies why ("device-crash", "watchdog-timeout", "error").
	Quarantined bool
	FailCause   string
	// Replayed marks a result restored from the journal instead of executed.
	Replayed bool
}

// Result is a whole fleet's outcome, in device-index order.
type Result struct {
	Devices []DeviceResult
	// TotalSchedSlices aggregates the per-device engine grants.
	TotalSchedSlices int
	// Retried counts executed devices that needed more than one attempt;
	// Quarantined counts permanent failures, broken down by cause in
	// QuarantineCauses; Replayed counts devices restored from the journal.
	Retried          int
	Quarantined      int
	QuarantineCauses map[string]int
	Replayed         int
	// ModelSetsTrained counts devices that trained their own model set;
	// ModelSetsReferenced counts devices that reused another device's shared
	// set. Their ratio is the class-sharing dedup factor (both are zero in
	// collect-only runs).
	ModelSetsTrained    int
	ModelSetsReferenced int
}

// Run plans and executes the fleet.
func Run(cfg Config) (*Result, error) {
	specs, err := Plan(cfg)
	if err != nil {
		return nil, err
	}
	return RunSpecs(cfg, specs)
}

// RunSpecs executes an explicit device list (tests use this to perturb one
// device's spec and prove the others don't notice). Devices fan out on
// private coordinator goroutines while every piece of real work — the victim
// co-run, profiled collection, model training — executes on one shared pool
// sized by Base.Workers. Coordinators only block on pool results, so total
// CPU concurrency is the pool size and Workers is the fleet's genuine
// throughput knob; results come back in device-index order.
//
// Each device runs under a supervisor: a per-attempt watchdog deadline,
// bounded retries on keyed retry-seed streams with capped backoff, durable
// journaling of completed devices, and quarantine (never an abort) for
// devices that exhaust every retry.
func RunSpecs(cfg Config, specs []DeviceSpec) (*Result, error) {
	if err := cfg.FleetChaos.Validate(); err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	if cfg.Retries < 0 {
		return nil, fmt.Errorf("fleet: Retries must be >= 0, got %d", cfg.Retries)
	}
	// The training-dedup layer is campaign-scoped: groups are keyed off the
	// planned specs (before any per-attempt fault splicing).
	var share *modelShare
	if !cfg.CollectOnly {
		share = newModelShare(specs)
	}
	var keys []string
	var replayed []deviceRecord
	var found []bool
	if cfg.Journal != nil {
		keys = deviceKeys(cfg, specs, share)
		var err error
		if replayed, found, err = replayJournal(cfg.Journal, specs, keys); err != nil {
			return nil, err
		}
	}
	pool := par.NewPool(cfg.Base.Workers)
	devices, err := par.Map(0, len(specs), func(i int) (DeviceResult, error) {
		if found != nil && found[i] {
			return replayed[i].result(specs[i], cfg.CollectOnly), nil
		}
		r := superviseDevice(cfg, specs[i], pool, share)
		if cfg.Journal != nil {
			if err := appendDeviceRecord(cfg.Journal, keys[i], &r); err != nil {
				return DeviceResult{}, err
			}
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Result{Devices: devices, QuarantineCauses: map[string]int{}}
	for _, d := range devices {
		res.TotalSchedSlices += d.SchedSlices
		if d.Replayed {
			res.Replayed++
		} else if d.Attempts > 1 {
			res.Retried++
		}
		if d.Quarantined {
			res.Quarantined++
			res.QuarantineCauses[d.FailCause]++
		}
		if d.ModelRep >= 0 {
			if d.ModelRep == d.Spec.Index {
				res.ModelSetsTrained++
			} else {
				res.ModelSetsReferenced++
			}
		}
	}
	return res, nil
}

// Per-cause quarantine classifications.
const (
	CauseDeviceCrash     = "device-crash"
	CauseWatchdogTimeout = "watchdog-timeout"
	CauseError           = "error"
)

// errWatchdog marks an attempt abandoned by the supervisor's deadline.
var errWatchdog = errors.New("fleet: device attempt exceeded watchdog deadline")

// superviseDevice runs one device under the supervisor policy: attempt 0 on
// the device's own seed, each retry k on the fresh DeriveSeed(seed,
// StreamFleetRetry, k) stream after a capped-exponential backoff, every
// attempt bounded by the watchdog. Fault injection comes from the campaign's
// FleetPlan per (device, attempt), so the same attempt always faults — or
// doesn't — identically. A device that exhausts every attempt is returned
// quarantined with its last cause; it is a result, not an error.
func superviseDevice(cfg Config, spec DeviceSpec, pool *par.Pool, share *modelShare) DeviceResult {
	maxAttempts := cfg.Retries + 1
	var lastCause, lastErr string
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 && cfg.RetryBackoff > 0 {
			delay := cfg.RetryBackoff << (attempt - 1)
			if max := 8 * cfg.RetryBackoff; delay > max {
				delay = max
			}
			time.Sleep(delay)
		}
		aspec := spec
		if attempt > 0 {
			aspec.Scale.Seed = eval.DeriveSeed(spec.Scale.Seed, eval.StreamFleetRetry, int64(attempt))
		}
		aspec.Scale.Chaos.Device = cfg.FleetChaos.FaultsFor(spec.Index, attempt)

		res, err := runAttempt(cfg, aspec, pool, share)
		if err == nil {
			// The result carries the attempt's spec (retry seed and injected
			// faults included) so a consumer can see what actually ran, but
			// keeps the planned index/name identity.
			res.Attempts = attempt + 1
			return res
		}
		lastErr = err.Error()
		var crash *chaos.DeviceCrashError
		switch {
		case errors.As(err, &crash):
			lastCause = CauseDeviceCrash
		case errors.Is(err, errWatchdog):
			lastCause = CauseWatchdogTimeout
		default:
			lastCause = CauseError
		}
	}
	return DeviceResult{
		Spec:        spec,
		Attempts:    maxAttempts,
		Quarantined: true,
		FailCause:   lastCause,
		ExtractErr:  lastErr,
		ModelRep:    -1,
	}
}

// runAttempt executes one device attempt, bounded by the watchdog. An
// abandoned attempt keeps running on the pool until its horizon — its result
// is discarded — which mirrors a real watchdog: the stuck process is given up
// on, not surgically cancelled.
func runAttempt(cfg Config, spec DeviceSpec, pool *par.Pool, share *modelShare) (DeviceResult, error) {
	if cfg.Watchdog <= 0 {
		return runDevice(spec, pool, cfg.CollectOnly, share)
	}
	type outcome struct {
		res DeviceResult
		err error
	}
	ch := make(chan outcome, 1)
	// spec and the flag go in as arguments, not captures, so the caller's
	// large Config and DeviceSpec stay on its stack on the watchdog-free path.
	go func(spec DeviceSpec, collectOnly bool) {
		r, e := runDevice(spec, pool, collectOnly, share)
		ch <- outcome{r, e}
	}(spec, cfg.CollectOnly)
	timer := time.NewTimer(cfg.Watchdog)
	defer timer.Stop()
	select {
	case out := <-ch:
		return out.res, out.err
	case <-timer.C:
		return DeviceResult{}, errWatchdog
	}
}

// runDevice executes one device end to end: victim co-run under the device's
// class, mix and spy allocation, then (unless collectOnly) extraction with
// its group's shared model set, trained on traces profiled on the same
// device class.
func runDevice(spec DeviceSpec, pool *par.Pool, collectOnly bool, share *modelShare) (DeviceResult, error) {
	sc := spec.Scale
	rcfg := sc.RunConfig(sc.StreamSeed(eval.StreamTested, 0), spec.Slowdown != 0)
	if spec.Slowdown > 0 {
		rcfg.Spy.SlowdownChannels = spec.Slowdown
	}
	for j := 0; j < spec.Tenants; j++ {
		rcfg.BackgroundTenants = append(rcfg.BackgroundTenants, sc.Profiled[j%len(sc.Profiled)])
	}
	// The co-run executes as a pool task: the caller's goroutine is just a
	// coordinator, so a 1-worker pool really does serialize the whole fleet.
	victim := spec.Victim // a capture of spec would move all of it to the heap
	victims, err := par.MapOn(pool, 1, func(int) (*trace.Trace, error) {
		return trace.Collect(victim, rcfg)
	})
	if err != nil {
		return DeviceResult{}, fmt.Errorf("fleet: %s: %w", spec.Name, err)
	}
	tr := victims[0]
	// The trace dies with this call: nothing in the DeviceResult points into
	// it (the recovery below is built from copies of its samples), so its
	// buffers go back to the arenas for the next device's collection.
	defer trace.Recycle(tr)
	res := DeviceResult{
		Spec:        spec,
		Health:      tr.Health,
		SchedSlices: tr.SchedSlices,
		TraceHash:   hashTrace(tr),
		ModelRep:    -1,
	}
	if sc.Iterations > 0 {
		res.SamplesPerIter = float64(len(tr.Samples)) / float64(sc.Iterations)
	}
	if collectOnly {
		return res, nil
	}

	models, rep, err := share.modelsFor(spec, pool)
	if err != nil {
		return DeviceResult{}, err
	}
	res.ModelRep = rep
	rec, err := models.ExtractTrace(tr)
	if err != nil {
		res.ExtractErr = err.Error()
		return res, nil
	}
	res.Coverage = rec.Coverage
	res.LayerAcc, res.HPAcc = attack.LayerAccuracy(rec.Layers, tr.Model)
	truth := attack.LetterTruth(tr.Labels(), rec.Base)
	_, res.LetterAcc = attack.LetterAccuracy(rec.Letters, truth)
	res.ExtractHash = hashRecovery(rec)
	res.Fingerprint = rec.Fingerprint()
	return res, nil
}

// hashTrace pins the measurement path: the same field enumeration as the
// eval package's golden-trace hash, plus the scheduler grant count. The
// little-endian framing matches what encoding/binary.Write would produce, but
// staged through one reused buffer: the reflective per-field Write calls were
// the fleet hot path's dominant allocation source (tens of thousands of
// 8-byte buffers per fleet op).
func hashTrace(tr *trace.Trace) string {
	h := sha256.New()
	buf := make([]byte, 0, 1024)
	flush := func() {
		h.Write(buf)
		buf = buf[:0]
	}
	putInt := func(v int64) {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	putFloat := func(v float64) {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	putInt(int64(len(tr.Samples)))
	for _, s := range tr.Samples {
		if len(buf) > 768 {
			flush()
		}
		putInt(int64(s.Start))
		putInt(int64(s.End))
		for _, v := range s.Values {
			putFloat(v)
		}
	}
	putInt(int64(tr.VictimWall))
	putInt(int64(tr.SpyProbeLaunches))
	putInt(int64(tr.SpyChannelsRejected))
	putInt(int64(tr.SchedSlices))
	flush()
	return fmt.Sprintf("%x", h.Sum(nil))
}

// hashRecovery pins the recovered structure: letters, op sequence, optimizer
// and every layer's hyper-parameters.
func hashRecovery(rec *attack.Recovery) string {
	h := sha256.New()
	h.Write(rec.Letters)
	h.Write([]byte(rec.OpSeq))
	binary.Write(h, binary.LittleEndian, int64(rec.Optimizer))
	for _, l := range rec.Layers {
		binary.Write(h, binary.LittleEndian, int64(l.Kind))
		binary.Write(h, binary.LittleEndian, int64(l.FilterSize))
		binary.Write(h, binary.LittleEndian, int64(l.NumFilters))
		binary.Write(h, binary.LittleEndian, int64(l.Stride))
		binary.Write(h, binary.LittleEndian, int64(l.Neurons))
		binary.Write(h, binary.LittleEndian, int64(l.Act))
		binary.Write(h, binary.LittleEndian, int64(l.ShortcutFrom))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
