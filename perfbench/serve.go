package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"leakydnn/internal/eval"
	"leakydnn/internal/journal"
	"leakydnn/internal/par"
	"leakydnn/internal/serve"
	"leakydnn/internal/trace"
)

// The serve-mixed traffic. The open loop sends Poisson arrivals at one fixed
// rate below capacity for three quarters of --seconds. The closed loop then
// sends distinct uploads, the open loop's fresh ones first, from nproc
// clients back to back to a second server whose journal is empty, so each is
// fresh there too, for the last quarter.
const (
	openRate       = 40.0 // requests per second
	repeatShare    = 0.2  // exact repeats of an earlier fresh upload
	truncatedShare = 0.1  // uploads cut short, answered 400
	repeatMinAge   = time.Second
	// closedBodiesPerS sizes the uploads set-up makes for the closed loop's
	// quarter of --seconds. It is above the measured capacity, so the closed
	// loop normally ends at the deadline rather than running out of uploads.
	closedBodiesPerS = 200.0
	// maxLateP99 marks an open-loop run invalid: past it the generator did
	// not offer the load it claims.
	maxLateP99 = 100 * time.Millisecond
	// maxUtilisation marks a run invalid when the open loop's offered fresh
	// rate exceeds this share of the same run's closed-loop capacity: the
	// latencies would then measure saturation, not service.
	maxUtilisation = 0.5
)

// Seed streams of the benchmark's own inputs, apart from the program's.
const (
	streamUploads  eval.SeedStream = 1001
	streamSchedule eval.SeedStream = 1002
)

const (
	kindFresh = iota
	kindRepeat
	kindTruncated
)

// arrival is one scheduled upload.
type arrival struct {
	offset time.Duration // from the start of the open loop
	kind   int
	body   int     // index into serveMixed.bodies
	cut    float64 // where a truncated upload ends, as a share of the body
}

// outcome is what the client saw for one upload.
type outcome struct {
	arrival
	due, sent, done time.Time
	err             error
	status          int
	resp            serve.ExtractResponse
	apiErr          struct{ Error, Detail string }
}

// serveMixed is the serve-mixed workload: an in-process serve.Server on a
// loopback listener, with a result journal and a model cache it shares with
// the benchmark, receiving a mix of fresh, repeated and truncated uploads.
type serveMixed struct {
	o     options
	nproc int
	sc    eval.Scale

	cache *serve.ModelCache

	bodies [][]byte
	open   []arrival
	// openSpan is how long the open loop sends; its fresh uploads are
	// bodies[:nFresh].
	openSpan time.Duration
	nFresh   int

	// offline holds each body's offline recovery, filled in by verify for
	// the bodies a run sent.
	offline []*offlineResult

	srv      *serve.Server
	jrnl     *journal.Journal
	dir      string
	base     string
	served   chan error
	client   *http.Client
	servers  int
	outcomes []outcome
}

type offlineResult struct {
	fingerprint   string
	letter, layer float64
}

func newServeMixed(o options) *serveMixed {
	// The daemon serves one model set, trained at the tiny scale's own seed;
	// the workload seed draws the traffic.
	nproc := runtime.NumCPU()
	sc := eval.Tiny()
	sc.Workers = nproc
	return &serveMixed{o: o, nproc: nproc, sc: sc}
}

func (s *serveMixed) setup(ctx context.Context, tr *tracer) error {
	if err := s.stopServer(nil); err != nil {
		return err
	}
	s.cache = serve.NewModelCache("")
	id := tr.begin("serve.model_cache_get", 0, -1)
	_, err := s.cache.Get(ctx, s.sc)
	tr.end(id)
	if err != nil {
		return err
	}

	s.nFresh = s.schedule()
	closedSpan := time.Duration(s.o.seconds)*time.Second - s.openSpan
	n := max(s.nFresh, int(closedBodiesPerS*closedSpan.Seconds()))
	s.offline = make([]*offlineResult, n)
	s.bodies = nil // let the previous set-up's uploads go before making these
	s.bodies, err = par.MapCtx(ctx, s.nproc, n, func(i int) ([]byte, error) {
		model := s.sc.Tested[i%len(s.sc.Tested)]
		rcfg := s.sc.RunConfig(eval.DeriveSeed(s.o.seed, streamUploads, int64(i)), true)
		t, err := collect(tr, model, rcfg, -1)
		if err != nil {
			return nil, err
		}
		return encode(t)
	})
	if err != nil {
		return err
	}
	return s.startServer(ctx)
}

// schedule draws the open-loop arrivals and returns how many fresh bodies
// they use. Repeats only name a fresh upload due at least repeatMinAge
// earlier, so its answer is normally journaled before the repeat arrives.
func (s *serveMixed) schedule() int {
	rng := rand.New(rand.NewSource(eval.DeriveSeed(s.o.seed, streamSchedule, 0)))
	span := time.Duration(s.o.seconds) * time.Second * 3 / 4
	s.openSpan = span
	s.open = s.open[:0]
	var fresh []arrival
	var t time.Duration
	for {
		t += time.Duration(rng.ExpFloat64() / openRate * float64(time.Second))
		if t >= span {
			break
		}
		a := arrival{offset: t}
		eligible := 0
		for eligible < len(fresh) && fresh[eligible].offset <= t-repeatMinAge {
			eligible++
		}
		switch u := rng.Float64(); {
		case u < truncatedShare:
			a.kind, a.body, a.cut = kindTruncated, max(0, len(fresh)-1), rng.Float64()
		case u < truncatedShare+repeatShare && eligible > 0:
			a.kind, a.body = kindRepeat, fresh[rng.Intn(eligible)].body
		default:
			a.kind, a.body = kindFresh, len(fresh)
			fresh = append(fresh, a)
		}
		s.open = append(s.open, a)
	}
	return len(fresh)
}

func (s *serveMixed) startServer(ctx context.Context) error {
	s.dir = filepath.Join(s.o.workDir, fmt.Sprintf("serve-%d-%d", os.Getpid(), s.servers))
	s.servers++
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return err
	}
	j, err := journal.Open(filepath.Join(s.dir, "results.jrnl"))
	if err != nil {
		return err
	}
	s.jrnl = j
	srv := serve.New(serve.Config{
		Scale:       s.sc,
		MaxInFlight: s.nproc,
		QueueDepth:  s.nproc,
		Cache:       s.cache,
		Journal:     j,
	})
	s.srv = srv
	if err := srv.Warm(ctx); err != nil {
		return err
	}
	if st := s.cache.Stats(); st.Misses != 1 {
		return fmt.Errorf("server did not share the benchmark's model cache: %+v", st)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan error, 1)
	s.served = served
	go func() { served <- srv.Serve(ln) }()
	s.base = "http://" + ln.Addr().String()
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     s.nproc,
		MaxIdleConnsPerHost: s.nproc,
		DisableCompression:  true,
	}}
	return nil
}

// stopServer drains the server, checks its admission partition at
// quiescence, times a warm restart over its journal, and removes the
// journal. pr may be nil when there is nothing to report into.
func (s *serveMixed) stopServer(pr *phaseResult) error {
	if s.srv == nil {
		return nil
	}
	srv := s.srv
	s.srv = nil
	derr := srv.Drain()
	serr := <-s.served
	s.client.CloseIdleConnections()
	m := srv.Metrics()
	jerr := s.jrnl.Close()
	defer os.RemoveAll(s.dir)
	if err := errors.Join(derr, serr, jerr); err != nil {
		return err
	}
	if pr == nil {
		return nil
	}
	if m.Admitted != m.Completed+m.Failed+m.Cancelled+m.Quarantined {
		pr.fail("admission partition broken at quiescence: %+v", m)
	}
	start := time.Now()
	j, err := journal.Open(filepath.Join(s.dir, "results.jrnl"))
	if err != nil {
		return err
	}
	pr.layer["journal.replay_ms"] = ms(time.Since(start))
	if n := j.Stats().Records; n != int(m.Completed-m.Replayed) {
		pr.fail("journal replayed %d records, server completed %d fresh extractions", n, m.Completed-m.Replayed)
	}
	return j.Close()
}

func (s *serveMixed) phase(ctx context.Context, tr *tracer) (*phaseResult, error) {
	if s.srv == nil {
		if err := s.startServer(ctx); err != nil {
			return nil, err
		}
	}
	nOpen := len(s.open)
	s.outcomes = make([]outcome, nOpen+len(s.bodies))
	pr := &phaseResult{layer: make(map[string]float64), named: make(map[string]metric)}

	// Open loop: the generator hands each arrival to nproc senders at its
	// due time; latency counts from the due time, so a stall anywhere
	// shows up in every request it delays.
	queue := make(chan int, nOpen) // sized to the number of sends
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < s.nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				s.outcomes[i] = s.send(ctx, tr, i, start.Add(s.open[i].offset), s.open[i])
			}
		}()
	}
	late := make([]time.Duration, 0, nOpen)
	timer := time.NewTimer(0)
	<-timer.C
generate:
	for i, a := range s.open {
		due := start.Add(a.offset)
		if d := time.Until(due); d > 0 {
			timer.Reset(d)
			select {
			case <-timer.C:
			case <-ctx.Done():
				break generate
			}
		}
		late = append(late, time.Since(due))
		queue <- i
	}
	close(queue)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pr.generatorLateP99Ms = ms(quantile(late, 0.99))

	// Closed loop: nproc clients send fresh uploads back to back to a
	// second server for the rest of --seconds, counted from its own start
	// so that an open loop running late cannot leave it no time. Each
	// client checks the deadline before it takes a body, so the bodies sent
	// are exactly the first next.Load() of them.
	if err := s.stopServer(pr); err != nil {
		return nil, err
	}
	if err := s.startServer(ctx); err != nil {
		return nil, err
	}
	cstart := time.Now()
	deadline := cstart.Add(time.Duration(s.o.seconds)*time.Second - s.openSpan)
	var next atomic.Int64
	for w := 0; w < s.nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				k := int(next.Add(1) - 1)
				if k >= len(s.bodies) {
					return
				}
				i := nOpen + k
				s.outcomes[i] = s.send(ctx, tr, i, time.Now(), arrival{kind: kindFresh, body: k})
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.outcomes = s.outcomes[:nOpen+min(int(next.Load()), len(s.bodies))]
	pr.throughput = chunkedRate(cstart, s.outcomes[nOpen:])
	pr.attempted = len(s.outcomes)
	pr.ops = len(s.outcomes)
	return pr, nil
}

// chunkedRate is the closed loop's answered uploads per second: the median
// over eight consecutive chunks of completions, so one stall of the machine
// moves one chunk rather than the whole figure.
func chunkedRate(start time.Time, closed []outcome) float64 {
	var done []time.Time
	for _, o := range closed {
		if o.status == http.StatusOK {
			done = append(done, o.done)
		}
	}
	sort.Slice(done, func(i, j int) bool { return done[i].Before(done[j]) })
	const chunks = 8
	var rates []float64
	prev := start
	for c := 1; c <= chunks; c++ {
		lo, hi := (c-1)*len(done)/chunks, c*len(done)/chunks
		if hi == lo {
			continue
		}
		rates = append(rates, float64(hi-lo)/done[hi-1].Sub(prev).Seconds())
		prev = done[hi-1]
	}
	return median(rates)
}

func wantStatus(kind int) int {
	if kind == kindTruncated {
		return http.StatusBadRequest
	}
	return http.StatusOK
}

// send uploads one body and reads the whole answer.
func (s *serveMixed) send(ctx context.Context, tr *tracer, req int, due time.Time, a arrival) outcome {
	o := outcome{arrival: a, due: due}
	body := s.bodies[a.body]
	if a.kind == kindTruncated {
		body = body[:1+int(a.cut*float64(len(body)-2))]
	}
	o.sent = time.Now()
	defer func() { tr.record("serve.request", 0, int64(req), o.sent, o.done) }()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+"/extract", bytes.NewReader(body))
	if err != nil {
		o.err, o.done = err, time.Now()
		return o
	}
	hreq.Header.Set("Content-Type", "application/octet-stream")
	resp, err := s.client.Do(hreq)
	if err != nil {
		o.err, o.done = err, time.Now()
		return o
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.done = time.Now()
	o.status = resp.StatusCode
	switch {
	case err != nil:
		o.err = err
	case o.status == http.StatusOK:
		o.err = json.Unmarshal(data, &o.resp)
	default:
		o.err = json.Unmarshal(data, &o.apiErr)
	}
	return o
}

// verify checks every answer against the offline pipeline run on the same
// bytes through the shared cache's models, and derives the serve-side
// per-layer values from the responses.
func (s *serveMixed) verify(ctx context.Context, pr *phaseResult) error {
	if err := s.stopServer(pr); err != nil {
		return err
	}
	nOpen := len(s.open)
	if err := s.computeOffline(ctx, max(s.nFresh, len(s.outcomes)-nOpen)); err != nil {
		return err
	}
	freshDone := make(map[int]time.Time)
	for _, o := range s.outcomes[:nOpen] {
		if o.kind == kindFresh && o.status == http.StatusOK {
			freshDone[o.body] = o.done
		}
	}
	var queueWait, extract, overhead []time.Duration
	var ok200, replayed, shed, malformed int
	for i, o := range s.outcomes {
		problem := s.check(o, freshDone)
		if problem != "" {
			pr.fail("upload %d (kind %d, body %d): %s", i, o.kind, o.body, problem)
		}
		// The latency percentiles cover the open loop's fresh uploads, the
		// path that extracts, plus every failed upload at an infinite latency.
		switch {
		case i >= nOpen:
		case problem != "":
			pr.lat = append(pr.lat, failedLatency)
		case o.kind == kindFresh:
			pr.lat = append(pr.lat, o.done.Sub(o.due))
		}
		switch o.status {
		case http.StatusOK:
			ok200++
			if o.resp.Replayed {
				replayed++
				continue
			}
			qw := time.Duration(o.resp.QueueWaitMS) * time.Millisecond
			ex := time.Duration(o.resp.ExtractMS) * time.Millisecond
			queueWait = append(queueWait, qw)
			extract = append(extract, ex)
			overhead = append(overhead, o.done.Sub(o.sent)-qw-ex)
		case http.StatusTooManyRequests:
			shed++
		case http.StatusBadRequest:
			malformed++
		}
	}
	pr.layer["serve.queue_wait_p50_ms"] = ms(quantile(queueWait, 0.50))
	pr.layer["serve.queue_wait_p99_ms"] = ms(quantile(queueWait, 0.99))
	pr.layer["serve.extract_p50_ms"] = ms(quantile(extract, 0.50))
	pr.layer["serve.extract_p99_ms"] = ms(quantile(extract, 0.99))
	pr.layer["serve.overhead_ms"] = ms(quantile(overhead, 0.50))
	pr.layer["serve.replay_frac"] = float64(replayed) / float64(max(1, ok200))
	pr.layer["serve.shed_frac"] = float64(shed) / float64(max(1, len(s.outcomes)))
	pr.layer["serve.malformed"] = float64(malformed)
	if pr.generatorLateP99Ms > ms(maxLateP99) {
		pr.fail("open-loop generator fell behind: late p99 %.1f ms > %v", pr.generatorLateP99Ms, maxLateP99)
	}
	util := float64(s.nFresh) / s.openSpan.Seconds() / pr.throughput
	if !(util <= maxUtilisation) {
		pr.fail("open loop offered %.3g of the closed loop's capacity, above %.2g: the rate is not below capacity",
			util, maxUtilisation)
	}

	// Accuracy and the determinism digest cover the open loop's fresh
	// uploads, which every run at one seed sends.
	h := sha256.New()
	var letter, layer float64
	for i, off := range s.offline[:s.nFresh] {
		fmt.Fprintf(h, "%d %s %.6f %.6f\n", i, off.fingerprint, off.letter, off.layer)
		letter += off.letter
		layer += off.layer
	}
	n := float64(s.nFresh)
	pr.digest = fmt.Sprintf("%x", h.Sum(nil))
	pr.named["serve_utilisation"] = metric{util, "ratio"}
	pr.named["serve_p50_ms"] = metric{ms(quantile(pr.lat, 0.50)), "ms"}
	pr.named["serve_p95_ms"] = metric{ms(quantile(pr.lat, 0.95)), "ms"}
	pr.named["serve_p99_ms"] = metric{ms(quantile(pr.lat, 0.99)), "ms"}
	pr.named["serve_capacity_traces_per_s"] = metric{pr.throughput, "traces/s"}
	pr.named["letter_acc"] = metric{letter / n, "ratio"}
	pr.named["layer_acc"] = metric{layer / n, "ratio"}
	return nil
}

// check returns why an answer is wrong, or "".
func (s *serveMixed) check(o outcome, freshDone map[int]time.Time) string {
	if o.err != nil {
		return o.err.Error()
	}
	if o.status != wantStatus(o.kind) {
		return fmt.Sprintf("status %d, want %d (%s: %s)", o.status, wantStatus(o.kind), o.apiErr.Error, o.apiErr.Detail)
	}
	if o.kind == kindTruncated {
		if o.apiErr.Error != "malformed_upload" || !strings.Contains(o.apiErr.Detail, "byte offset") {
			return fmt.Sprintf("truncated upload answered %q without a byte offset: %s", o.apiErr.Error, o.apiErr.Detail)
		}
		return ""
	}
	if len(o.resp.Traces) != 1 {
		return fmt.Sprintf("%d traces in the answer, want 1", len(o.resp.Traces))
	}
	if got, want := o.resp.Traces[0].Fingerprint, s.offline[o.body].fingerprint; got != want {
		return fmt.Sprintf("fingerprint %s, offline ExtractTrace gives %s", got, want)
	}
	switch o.kind {
	case kindFresh:
		if o.resp.Replayed {
			return "a fresh upload was answered from the journal"
		}
	case kindRepeat:
		// A repeat must be replayed once its original was answered before
		// it was sent; racing the original, a fresh extraction is correct.
		if done, ok := freshDone[o.body]; ok && done.Before(o.sent) && !o.resp.Replayed {
			return "a repeat of an answered upload was extracted again instead of replayed"
		}
	}
	return ""
}

// computeOffline runs the offline pipeline once on each of the first n
// bodies.
func (s *serveMixed) computeOffline(ctx context.Context, n int) error {
	models, err := s.cache.Get(ctx, s.sc)
	if err != nil {
		return err
	}
	offline, err := par.MapCtx(ctx, s.nproc, n, func(i int) (*offlineResult, error) {
		if s.offline[i] != nil {
			return s.offline[i], nil
		}
		t, err := trace.ReadTrace(bytes.NewReader(s.bodies[i]))
		if err != nil {
			return nil, fmt.Errorf("decode body %d: %w", i, err)
		}
		rec, err := models.ExtractTrace(t)
		if err != nil {
			return nil, fmt.Errorf("offline extraction of body %d: %w", i, err)
		}
		off := &offlineResult{fingerprint: rec.Fingerprint()}
		off.letter, off.layer = accuracy(rec, t)
		return off, nil
	})
	copy(s.offline, offline)
	return err
}

// layers decodes and extracts a sample of the uploads stage by stage, and
// times journal appends of the answers the server journals.
func (s *serveMixed) layers(ctx context.Context, tr *tracer, out map[string]float64) error {
	models, err := s.cache.Get(ctx, s.sc)
	if err != nil {
		return err
	}
	var payloads [][]byte
	for body := 0; body < min(layerUploadsN, s.nFresh); body++ {
		req := int64(layerReqBase + body)
		id := tr.begin("trace.decode", 0, req)
		t, err := trace.NewReader(bytes.NewReader(s.bodies[body])).Read()
		tr.end(id)
		if err != nil {
			return err
		}
		rec, err := stagedExtract(tr, models, t, req)
		if err != nil {
			return err
		}
		if rec.Fingerprint() != s.offline[body].fingerprint {
			return fmt.Errorf("body %d: staged extraction fingerprint differs from the offline one", body)
		}
		for _, o := range s.outcomes {
			if o.body == body && o.status == http.StatusOK {
				p, err := json.Marshal(o.resp.Traces)
				if err != nil {
					return err
				}
				payloads = append(payloads, p)
				break
			}
		}
	}
	return journalAppends(tr, filepath.Join(s.o.workDir, fmt.Sprintf("appends-%d", os.Getpid())), "serve-extract", payloads)
}

func (s *serveMixed) close() {
	if err := s.stopServer(nil); err != nil {
		fmt.Fprintln(os.Stderr, "serve-mixed: stop server:", err)
	}
}
