// Package serve implements mosconsd, the fault-tolerant extraction service:
// an HTTP daemon that accepts victim trace uploads and runs the MoSConS
// pipeline over them under an explicit overload model. Admission control is a
// bounded queue in front of a bounded execution-slot set; everything past
// capacity is shed immediately with a typed 429 rather than queued into
// unbounded latency. Every admitted request runs under a deadline merged with
// the server's lifecycle context, so client disconnects, request timeouts, and
// drain all cancel through the same cooperative path down to the per-sample
// model sweeps. Extraction results are byte-identical to the offline
// `mosconsim -load-traces` pipeline for the same trace bytes — the response
// carries the recovery fingerprint that pins it.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"leakydnn/internal/attack"
	"leakydnn/internal/eval"
	"leakydnn/internal/journal"
	"leakydnn/internal/par"
	"leakydnn/internal/trace"
)

// Config sizes the daemon.
type Config struct {
	// Scale selects the model zoo and attack configuration the daemon serves;
	// its key (CacheKey) selects the warm model set.
	Scale eval.Scale

	// MaxInFlight bounds concurrently executing extractions (<= 0 selects the
	// worker default); QueueDepth bounds requests admitted but waiting for an
	// execution slot (< 0 means 0: no queue, shed at MaxInFlight). Admission
	// capacity is MaxInFlight + QueueDepth.
	MaxInFlight int
	QueueDepth  int

	// RequestTimeout is the per-request extraction deadline (0 = 2 minutes).
	RequestTimeout time.Duration
	// DrainTimeout bounds how long Drain waits for in-flight requests before
	// hard-cancelling them (0 = 30 seconds).
	DrainTimeout time.Duration

	// MaxChunkBytes is the per-chunk wire guard handed to trace.Reader
	// (0 = the reader's default).
	MaxChunkBytes int64
	// MaxUploadBytes bounds a whole request body (0 = 1 GiB).
	MaxUploadBytes int64

	// QuarantineDir, when set, captures malformed uploads: the bytes consumed
	// before the parse error are kept there for postmortem instead of being
	// discarded with the 400. The directory is rotated: once it holds more
	// than QuarantineMaxFiles captures (0 = 32) or QuarantineMaxBytes bytes
	// (0 = 64 MiB) the oldest captures are deleted, so a flood of malformed
	// uploads cannot fill the disk. Negative values disable the cap.
	QuarantineDir      string
	QuarantineMaxFiles int
	QuarantineMaxBytes int64

	// Cache supplies warm model sets; nil builds an in-memory-only cache.
	Cache *ModelCache

	// Journal, when set, records every served extraction keyed by (scale,
	// upload bytes). A daemon restarted over the same journal — including
	// after SIGKILL mid-run; Open truncates the torn tail — answers
	// previously-served uploads from the journal instead of re-extracting.
	Journal *journal.Journal
}

func (c Config) withDefaults() Config {
	c.MaxInFlight = par.Workers(c.MaxInFlight)
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 2 * time.Minute
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.MaxUploadBytes <= 0 {
		c.MaxUploadBytes = 1 << 30
	}
	if c.QuarantineMaxFiles == 0 {
		c.QuarantineMaxFiles = 32
	}
	if c.QuarantineMaxBytes == 0 {
		c.QuarantineMaxBytes = 64 << 20
	}
	if c.Cache == nil {
		c.Cache = NewModelCache("")
	}
	return c
}

// Server is the extraction daemon. Build with New, attach listeners with
// Serve, stop with Drain.
type Server struct {
	cfg     Config
	cache   *ModelCache
	pool    *par.Pool
	metrics Metrics

	// models caches the warm set after the first successful Get.
	models atomic.Pointer[attack.Models]

	// sem holds the execution slots; queued counts every request past
	// admission (waiting + executing), capped at MaxInFlight + QueueDepth.
	sem    chan struct{}
	queued atomic.Int64

	// baseCtx is the server lifecycle: hardCancel fires when a drain's
	// deadline expires (or Close is called), cancelling every in-flight
	// request and any in-flight model warm-up.
	baseCtx    context.Context
	hardCancel context.CancelFunc
	draining   atomic.Bool

	http *http.Server

	// extract is the per-trace pipeline; a test hook so admission and drain
	// behaviour can be exercised with stub workloads.
	extract func(ctx context.Context, m *attack.Models, tr *trace.Trace) (*attack.Recovery, error)

	// jreplay indexes the result journal's records by (scale, body hash) key;
	// jmu guards it against concurrent requests recording results.
	jmu     sync.Mutex
	jreplay map[string][]byte

	start time.Time
}

// New builds a daemon from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		cache:      cfg.Cache,
		pool:       par.NewPool(cfg.MaxInFlight),
		sem:        make(chan struct{}, cfg.MaxInFlight),
		baseCtx:    ctx,
		hardCancel: cancel,
		extract: func(ctx context.Context, m *attack.Models, tr *trace.Trace) (*attack.Recovery, error) {
			return m.ExtractTraceCtx(ctx, tr)
		},
		start: time.Now(),
	}
	s.loadJournal()
	s.http = &http.Server{Handler: s.Handler()}
	return s
}

// Handler returns the daemon's routes; exported so tests can drive the
// service through httptest without sockets.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /extract", s.handleExtract)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// Metrics exposes the request accounting (primarily for tests; HTTP clients
// use /metrics).
func (s *Server) Metrics() MetricsSnapshot { return s.metrics.Snapshot() }

// Warm populates the model set ahead of traffic, so the first request does
// not pay the training latency. Concurrent with Serve; requests arriving
// mid-warm-up block on the same single-flight population.
func (s *Server) Warm(ctx context.Context) error {
	_, err := s.getModels(ctx)
	return err
}

// Serve accepts connections on l until Drain or a listener error. Call from
// several goroutines to serve several listeners (e.g. a TCP port and a unix
// socket) with one admission budget.
func (s *Server) Serve(l net.Listener) error {
	err := s.http.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Drain shuts down gracefully: stop admitting (typed 503s), let in-flight
// requests finish within the drain deadline, then hard-cancel whatever is
// left. Returns nil on a clean drain, the deadline error if requests had to
// be cancelled.
func (s *Server) Drain() error {
	s.draining.Store(true)
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	err := s.http.Shutdown(ctx)
	// Hard-cancel regardless: a clean drain has nothing in flight to cancel,
	// and any model warm-up still running must not outlive the daemon.
	s.hardCancel()
	if err != nil {
		// The deadline expired with connections still active; the cancel
		// above unblocks their handlers, so a short follow-up shutdown reaps
		// them.
		reap, cancelReap := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancelReap()
		s.http.Shutdown(reap) //nolint:errcheck // best-effort reap after hard-cancel
		return fmt.Errorf("serve: drain deadline exceeded, in-flight requests hard-cancelled: %w", err)
	}
	return nil
}

// getModels returns the warm model set, populating the cache under the
// server's lifecycle context — never the request's, so an impatient client
// cannot cancel a warm-up other requests are waiting on. The caller's ctx
// bounds only its own wait.
func (s *Server) getModels(ctx context.Context) (*attack.Models, error) {
	if m := s.models.Load(); m != nil {
		return m, nil
	}
	type res struct {
		m   *attack.Models
		err error
	}
	ch := make(chan res, 1)
	go func() {
		m, err := s.cache.Get(s.baseCtx, s.cfg.Scale)
		ch <- res{m, err}
	}()
	select {
	case r := <-ch:
		if r.err == nil {
			s.models.Store(r.m)
		}
		return r.m, r.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// apiError is the typed error body every non-200 carries.
type apiError struct {
	Error      string `json:"error"`
	Detail     string `json:"detail,omitempty"`
	RetryAfter int    `json:"retry_after_seconds,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // response write failure has no recovery
}

func writeError(w http.ResponseWriter, status int, e apiError) {
	if e.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.RetryAfter))
	}
	writeJSON(w, status, e)
}

// TraceResult is one trace's extraction outcome inside ExtractResponse.
type TraceResult struct {
	Model   string `json:"model"`
	Samples int    `json:"samples"`
	// Fingerprint is the canonical recovery hash; equal fingerprints mean the
	// service and the offline pipeline made byte-identical decisions.
	Fingerprint string          `json:"fingerprint"`
	OpSeq       string          `json:"op_seq"`
	Optimizer   string          `json:"optimizer"`
	Layers      int             `json:"layers"`
	Coverage    attack.Coverage `json:"coverage"`
	// Health summarizes the collection-side degradation the trace itself
	// reported (nil when the upload carried none).
	Health *HealthResult `json:"health,omitempty"`
}

// HealthResult is the slice of trace.Health a service client needs to judge a
// partial answer.
type HealthResult struct {
	Summary          string `json:"summary"`
	SamplesEmitted   int    `json:"samples_emitted"`
	SamplesDelivered int    `json:"samples_delivered"`
	Reanchors        int    `json:"reanchors"`
}

// ExtractResponse is the 200 body of POST /extract.
type ExtractResponse struct {
	Traces []TraceResult `json:"traces"`
	// Replayed marks a response served from the result journal (warm restart)
	// instead of a fresh extraction; the fingerprints are identical either way.
	Replayed    bool  `json:"replayed,omitempty"`
	QueueWaitMS int64 `json:"queue_wait_ms"`
	ExtractMS   int64 `json:"extract_ms"`
}

func (s *Server) handleExtract(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.metrics.draining.Add(1)
		writeError(w, http.StatusServiceUnavailable, apiError{
			Error:      "draining",
			Detail:     "server is shutting down and no longer admits work",
			RetryAfter: 1,
		})
		return
	}

	// Admission: one atomic add against the combined queue+execution budget.
	// Everything past it is shed now — a bounded queue is the whole overload
	// model; unbounded queueing would just convert overload into timeouts.
	capacity := int64(s.cfg.MaxInFlight + s.cfg.QueueDepth)
	if n := s.queued.Add(1); n > capacity {
		s.queued.Add(-1)
		s.metrics.shed.Add(1)
		writeError(w, http.StatusTooManyRequests, apiError{
			Error: "overloaded",
			Detail: fmt.Sprintf("admission queue full: %d requests in service (capacity %d = %d slots + %d queue)",
				n-1, capacity, s.cfg.MaxInFlight, s.cfg.QueueDepth),
			RetryAfter: 1,
		})
		return
	}
	defer s.queued.Add(-1)
	s.metrics.admitted.Add(1)
	s.metrics.queued.Add(1)

	// The request context: client disconnect + per-request deadline + the
	// server's hard-cancel, all folded into one ctx the pipeline polls.
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	stop := context.AfterFunc(s.baseCtx, cancel)
	defer stop()

	// Wait for an execution slot; a dead client leaves the queue immediately.
	enqueued := time.Now()
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		s.metrics.queued.Add(-1)
		s.metrics.cancelled.Add(1)
		writeError(w, http.StatusServiceUnavailable, apiError{
			Error:      "cancelled_in_queue",
			Detail:     ctx.Err().Error(),
			RetryAfter: 1,
		})
		return
	}
	queueWait := time.Since(enqueued)
	s.metrics.queued.Add(-1)
	s.metrics.inFlight.Add(1)
	defer func() {
		<-s.sem
		s.metrics.inFlight.Add(-1)
	}()

	traces, bodyHash, qpath, err := s.readUpload(r.Body)
	if err != nil {
		s.metrics.quarantined.Add(1)
		detail := err.Error()
		if qpath != "" {
			detail = fmt.Sprintf("%s (partial upload quarantined at %s)", detail, qpath)
			s.rotateQuarantine()
		}
		writeError(w, http.StatusBadRequest, apiError{Error: "malformed_upload", Detail: detail})
		return
	}
	// The decoded traces are request scratch: once the response is written
	// (every return below), their sample and event buffers go back to the
	// trace spares for the next upload's decode. Extraction has finished by
	// then — MapOnCtx waits for every task it started — and no response,
	// journal record or Recovery keeps a slice of them.
	defer recycleAll(traces)

	// Warm restart: an upload this daemon's journal already holds an answer
	// for is served from the record — no model warm-up, no extraction. The
	// key pins (scale, trace bytes) and the pipeline is deterministic in
	// both, so the stored fingerprints are the re-extraction's fingerprints.
	resultKey := s.resultKey(bodyHash)
	if stored, ok := s.replayResult(resultKey); ok {
		s.metrics.replayed.Add(1)
		s.metrics.completed.Add(1)
		s.metrics.tracesExtracted.Add(int64(len(stored)))
		writeJSON(w, http.StatusOK, ExtractResponse{
			Traces:      stored,
			Replayed:    true,
			QueueWaitMS: queueWait.Milliseconds(),
		})
		return
	}

	models, err := s.getModels(ctx)
	if err != nil {
		s.finishErr(w, ctx, err, "models_unavailable")
		return
	}

	// Extraction fans out across the request's traces on the shared pool, so
	// a multi-trace upload cannot exceed the server-wide slot budget.
	extractStart := time.Now()
	recs, err := par.MapOnCtx(ctx, s.pool, len(traces), func(i int) (*attack.Recovery, error) {
		return s.extract(ctx, models, traces[i])
	})
	if err != nil {
		s.finishErr(w, ctx, err, "extraction_failed")
		return
	}

	resp := ExtractResponse{
		QueueWaitMS: queueWait.Milliseconds(),
		ExtractMS:   time.Since(extractStart).Milliseconds(),
	}
	for i, rec := range recs {
		tr := traces[i]
		res := TraceResult{
			Model:       tr.Model.Name,
			Samples:     len(tr.Samples),
			Fingerprint: rec.Fingerprint(),
			OpSeq:       rec.OpSeq,
			Optimizer:   fmt.Sprintf("%v", rec.Optimizer),
			Layers:      len(rec.Layers),
			Coverage:    rec.Coverage,
		}
		if tr.Health != nil {
			res.Health = &HealthResult{
				Summary:          tr.Health.Summary(),
				SamplesEmitted:   tr.Health.SamplesEmitted,
				SamplesDelivered: tr.Health.SamplesDelivered,
				Reanchors:        tr.Health.Reanchors,
			}
		}
		resp.Traces = append(resp.Traces, res)
	}
	s.recordResult(resultKey, resp.Traces)
	s.metrics.completed.Add(1)
	s.metrics.tracesExtracted.Add(int64(len(recs)))
	writeJSON(w, http.StatusOK, resp)
}

// finishErr classifies a post-admission failure: context death is reported as
// cancellation (503 during drain / client death, 504 on deadline), anything
// else as the named failure.
func (s *Server) finishErr(w http.ResponseWriter, ctx context.Context, err error, kind string) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.metrics.cancelled.Add(1)
		writeError(w, http.StatusGatewayTimeout, apiError{
			Error:  "deadline_exceeded",
			Detail: fmt.Sprintf("request deadline %s expired: %v", s.cfg.RequestTimeout, err),
		})
	case errors.Is(err, context.Canceled), ctx.Err() != nil:
		s.metrics.cancelled.Add(1)
		writeError(w, http.StatusServiceUnavailable, apiError{
			Error:      "cancelled",
			Detail:     err.Error(),
			RetryAfter: 1,
		})
	default:
		s.metrics.failed.Add(1)
		writeError(w, http.StatusUnprocessableEntity, apiError{Error: kind, Detail: err.Error()})
	}
}

// readUpload decodes the request body incrementally through trace.Reader —
// the reader never preallocates what the wire merely claims, so a hostile
// length header costs nothing. The consumed bytes are hashed on the way
// through (the result journal's key half). On a parse error the consumed
// prefix is kept in the quarantine directory (when configured) and the error
// carries the reader's byte offset.
func (s *Server) readUpload(body io.Reader) (traces []*trace.Trace, bodyHash, quarantined string, err error) {
	limited := io.LimitReader(body, s.cfg.MaxUploadBytes+1)
	hasher := sha256.New()
	var spool *os.File
	src := io.TeeReader(limited, hasher)
	if s.cfg.QuarantineDir != "" {
		os.MkdirAll(s.cfg.QuarantineDir, 0o755) //nolint:errcheck // capture below degrades gracefully
		if f, ferr := os.CreateTemp(s.cfg.QuarantineDir, "upload-*.partial"); ferr == nil {
			spool = f
			src = io.TeeReader(src, f)
		}
	}
	defer func() {
		if spool == nil {
			return
		}
		spool.Close()
		if err == nil {
			os.Remove(spool.Name())
		} else {
			quarantined = spool.Name()
		}
	}()

	tr := trace.NewReader(src)
	tr.SetMaxChunkBytes(s.cfg.MaxChunkBytes)
	for {
		t, rerr := tr.Read()
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			recycleAll(traces)
			return nil, "", "", rerr
		}
		traces = append(traces, t)
		if tr.Offset() > s.cfg.MaxUploadBytes {
			recycleAll(traces)
			return nil, "", "", fmt.Errorf("serve: upload exceeds %d byte limit", s.cfg.MaxUploadBytes)
		}
	}
	if len(traces) == 0 {
		return nil, "", "", errors.New("serve: empty upload: no traces before EOF")
	}
	return traces, hex.EncodeToString(hasher.Sum(nil)), "", nil
}

// recycleAll hands a finished request's decoded traces' buffers back to
// the trace spares.
func recycleAll(traces []*trace.Trace) {
	for _, t := range traces {
		trace.Recycle(t)
	}
}

// rotateQuarantine bounds the quarantine directory: oldest captures are
// deleted until at most QuarantineMaxFiles files and QuarantineMaxBytes bytes
// remain (negative caps disable). Called after each new capture, so a flood
// of malformed uploads converges to a bounded postmortem window instead of a
// full disk.
func (s *Server) rotateQuarantine() {
	maxFiles, maxBytes := s.cfg.QuarantineMaxFiles, s.cfg.QuarantineMaxBytes
	if maxFiles < 0 && maxBytes < 0 {
		return
	}
	matches, err := filepath.Glob(filepath.Join(s.cfg.QuarantineDir, "upload-*.partial"))
	if err != nil {
		return
	}
	type capture struct {
		path string
		mod  time.Time
		size int64
	}
	var caps []capture
	var total int64
	for _, p := range matches {
		fi, err := os.Stat(p)
		if err != nil {
			continue
		}
		caps = append(caps, capture{p, fi.ModTime(), fi.Size()})
		total += fi.Size()
	}
	sort.Slice(caps, func(i, j int) bool {
		if !caps[i].mod.Equal(caps[j].mod) {
			return caps[i].mod.Before(caps[j].mod)
		}
		return caps[i].path < caps[j].path
	})
	for _, c := range caps {
		overFiles := maxFiles >= 0 && len(caps) > maxFiles
		overBytes := maxBytes >= 0 && total > maxBytes
		if !overFiles && !overBytes {
			return
		}
		if os.Remove(c.path) == nil {
			s.metrics.quarantineRotated.Add(1)
		}
		caps = caps[1:]
		total -= c.size
	}
}

// Healthz is the GET /healthz body.
type Healthz struct {
	Status        string          `json:"status"` // "ok" or "draining"
	UptimeSeconds int64           `json:"uptime_seconds"`
	Scale         string          `json:"scale"`
	ModelsReady   bool            `json:"models_ready"`
	MaxInFlight   int             `json:"max_in_flight"`
	QueueDepth    int             `json:"queue_depth"`
	Metrics       MetricsSnapshot `json:"metrics"`
	Cache         CacheStats      `json:"cache"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, Healthz{
		Status:        status,
		UptimeSeconds: int64(time.Since(s.start).Seconds()),
		Scale:         s.cfg.Scale.Name,
		ModelsReady:   s.models.Load() != nil,
		MaxInFlight:   s.cfg.MaxInFlight,
		QueueDepth:    s.cfg.QueueDepth,
		Metrics:       s.metrics.Snapshot(),
		Cache:         s.cache.Stats(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.metrics.Snapshot())
}
