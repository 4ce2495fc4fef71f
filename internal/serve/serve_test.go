package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"leakydnn/internal/attack"
	"leakydnn/internal/cupti"
	"leakydnn/internal/dnn"
	"leakydnn/internal/eval"
	"leakydnn/internal/trace"
)

// ---- stub fixtures: admission/drain behaviour without real training ----

// stubCache returns an in-memory cache whose training is instant, so overload
// tests exercise the admission machinery and nothing else.
func stubCache() *ModelCache {
	c := NewModelCache("")
	c.train = func(ctx context.Context, sc eval.Scale) (*attack.Models, error) {
		return &attack.Models{Cfg: attack.FastConfig()}, nil
	}
	return c
}

func stubUpload(t testing.TB) []byte {
	t.Helper()
	tr := &trace.Trace{
		Model:   dnn.Model{Name: "stub"},
		Samples: make([]cupti.Sample, 4),
		Health:  &trace.Health{SamplesEmitted: 4, SamplesDelivered: 4},
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func postExtract(t *testing.T, client *http.Client, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := client.Post(url+"/extract", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func decodeError(t *testing.T, body []byte) apiError {
	t.Helper()
	var e apiError
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("error body is not typed JSON: %v (%q)", err, body)
	}
	return e
}

// startServer runs s.Serve on a loopback listener so drain tests exercise the
// real shutdown path — httptest wraps its own http.Server, which s.Drain does
// not control.
func startServer(t *testing.T, s *Server) (base string, client *http.Client) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(l) }()
	t.Cleanup(func() {
		s.hardCancel()
		s.http.Close()
		if err := <-served; err != nil {
			t.Errorf("serve loop exit: %v", err)
		}
	})
	return "http://" + l.Addr().String(), &http.Client{}
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestAdmissionShedsAtCapacity(t *testing.T) {
	gate := make(chan struct{})
	s := New(Config{Scale: eval.Tiny(), MaxInFlight: 1, QueueDepth: 1, Cache: stubCache()})
	s.extract = func(ctx context.Context, m *attack.Models, tr *trace.Trace) (*attack.Recovery, error) {
		select {
		case <-gate:
			return &attack.Recovery{OpSeq: "stub"}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	upload := stubUpload(t)

	type result struct {
		status int
		body   []byte
	}
	results := make(chan result, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, body := postExtract(t, ts.Client(), ts.URL, upload)
			results <- result{resp.StatusCode, body}
		}()
	}
	// One request must hold the slot and one must occupy the queue before the
	// third arrives, or the test races its own setup.
	waitFor(t, "slot + queue occupied", func() bool {
		m := s.Metrics()
		return m.InFlight == 1 && m.Queued+m.InFlight == 2
	})

	resp, body := postExtract(t, ts.Client(), ts.URL, upload)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity request: status %d, want 429 (body %q)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	if e := decodeError(t, body); e.Error != "overloaded" {
		t.Fatalf("typed error = %q, want overloaded", e.Error)
	}

	close(gate)
	for i := 0; i < 2; i++ {
		r := <-results
		if r.status != http.StatusOK {
			t.Fatalf("admitted request: status %d (body %q)", r.status, r.body)
		}
	}
	m := s.Metrics()
	if m.Shed != 1 || m.Completed != 2 {
		t.Fatalf("metrics = %+v, want shed 1 completed 2", m)
	}
	if m.Queued != 0 || m.InFlight != 0 {
		t.Fatalf("gauges did not return to zero: %+v", m)
	}
}

func TestQueueWaitAbandonedOnTimeout(t *testing.T) {
	gate := make(chan struct{})
	s := New(Config{
		Scale: eval.Tiny(), MaxInFlight: 1, QueueDepth: 1,
		RequestTimeout: 50 * time.Millisecond, Cache: stubCache(),
	})
	// The slot holder deliberately ignores ctx: it must keep the slot past
	// its own deadline so the queued request's timeout fires while queued.
	s.extract = func(ctx context.Context, m *attack.Models, tr *trace.Trace) (*attack.Recovery, error) {
		<-gate
		return &attack.Recovery{}, nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	// Deferred after ts.Close so it runs first: ts.Close waits on the gated
	// handler, which only the gate releases.
	defer close(gate)
	upload := stubUpload(t)

	go func() {
		// Errors are irrelevant: this request exists to hold the slot until
		// the gate closes at test end.
		resp, err := ts.Client().Post(ts.URL+"/extract", "application/octet-stream", bytes.NewReader(upload))
		if err == nil {
			resp.Body.Close()
		}
	}()
	waitFor(t, "first request holds the slot", func() bool { return s.Metrics().InFlight == 1 })

	resp, body := postExtract(t, ts.Client(), ts.URL, upload)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("queued request past deadline: status %d (body %q)", resp.StatusCode, body)
	}
	if e := decodeError(t, body); e.Error != "cancelled_in_queue" {
		t.Fatalf("typed error = %q, want cancelled_in_queue", e.Error)
	}
}

func TestDrainFinishesInFlightAndRejectsNew(t *testing.T) {
	gate := make(chan struct{})
	s := New(Config{Scale: eval.Tiny(), MaxInFlight: 2, QueueDepth: 2, Cache: stubCache()})
	s.extract = func(ctx context.Context, m *attack.Models, tr *trace.Trace) (*attack.Recovery, error) {
		select {
		case <-gate:
			return &attack.Recovery{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	base, client := startServer(t, s)
	upload := stubUpload(t)

	inFlight := make(chan int, 1)
	go func() {
		resp, _ := postExtract(t, client, base, upload)
		inFlight <- resp.StatusCode
	}()
	waitFor(t, "request in flight", func() bool { return s.Metrics().InFlight == 1 })

	drained := make(chan error, 1)
	go func() { drained <- s.Drain() }()
	waitFor(t, "server draining", func() bool { return s.draining.Load() })

	// A new request during drain is refused either way: a typed 503 on a
	// surviving keep-alive connection, or a connection error once the
	// listener is down. Both mean "not admitted".
	resp, err := client.Post(base+"/extract", "application/octet-stream", bytes.NewReader(upload))
	if err == nil {
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("request during drain: status %d, want 503", resp.StatusCode)
		}
		resp.Body.Close()
	}

	close(gate)
	if err := <-drained; err != nil {
		t.Fatalf("drain with releasable in-flight work: %v", err)
	}
	if code := <-inFlight; code != http.StatusOK {
		t.Fatalf("in-flight request during clean drain: status %d, want 200", code)
	}
}

// TestDrainingRejectIsTyped pins the 503 body a draining server returns on
// connections that survive into the drain window.
func TestDrainingRejectIsTyped(t *testing.T) {
	s := New(Config{Scale: eval.Tiny(), Cache: stubCache()})
	s.draining.Store(true)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, body := postExtract(t, ts.Client(), ts.URL, stubUpload(t))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if e := decodeError(t, body); e.Error != "draining" {
		t.Fatalf("typed error = %q, want draining", e.Error)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining 503 without Retry-After")
	}
}

func TestDrainDeadlineHardCancels(t *testing.T) {
	upload := stubUpload(t)
	s := New(Config{
		Scale: eval.Tiny(), MaxInFlight: 1, QueueDepth: 0,
		DrainTimeout: 50 * time.Millisecond, Cache: stubCache(),
	})
	s.extract = func(ctx context.Context, m *attack.Models, tr *trace.Trace) (*attack.Recovery, error) {
		<-ctx.Done() // a request that only a hard-cancel can end
		return nil, ctx.Err()
	}
	base, client := startServer(t, s)

	status := make(chan int, 1)
	go func() {
		resp, _ := postExtract(t, client, base, upload)
		status <- resp.StatusCode
	}()
	waitFor(t, "request in flight", func() bool { return s.Metrics().InFlight == 1 })

	err := s.Drain()
	if err == nil {
		t.Fatal("drain of an unfinishable request reported clean")
	}
	if code := <-status; code != http.StatusServiceUnavailable {
		t.Fatalf("hard-cancelled request: status %d, want 503", code)
	}
	if got := s.Metrics().Cancelled; got != 1 {
		t.Fatalf("cancelled counter = %d, want 1", got)
	}
}

func TestMalformedUploadQuarantined(t *testing.T) {
	qdir := t.TempDir()
	s := New(Config{Scale: eval.Tiny(), QuarantineDir: qdir, Cache: stubCache()})
	s.extract = func(ctx context.Context, m *attack.Models, tr *trace.Trace) (*attack.Recovery, error) {
		return &attack.Recovery{}, nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	full := stubUpload(t)
	resp, body := postExtract(t, ts.Client(), ts.URL, full[:len(full)-5])
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated upload: status %d, want 400 (body %q)", resp.StatusCode, body)
	}
	e := decodeError(t, body)
	if e.Error != "malformed_upload" {
		t.Fatalf("typed error = %q, want malformed_upload", e.Error)
	}
	if !strings.Contains(e.Detail, "byte offset") {
		t.Fatalf("detail lacks a byte offset: %q", e.Detail)
	}
	if !strings.Contains(e.Detail, "quarantined at") {
		t.Fatalf("detail lacks the quarantine path: %q", e.Detail)
	}
	matches, err := filepath.Glob(filepath.Join(qdir, "upload-*.partial"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("quarantine dir holds %d captures (err %v), want 1", len(matches), err)
	}
	kept, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(kept, full[:len(full)-5]) {
		t.Fatalf("quarantined capture is %d bytes, want the %d consumed", len(kept), len(full)-5)
	}
	if got := s.Metrics().Quarantined; got != 1 {
		t.Fatalf("quarantined counter = %d, want 1", got)
	}

	// A good upload afterwards leaves no new capture behind.
	if resp, body := postExtract(t, ts.Client(), ts.URL, full); resp.StatusCode != http.StatusOK {
		t.Fatalf("good upload after quarantine: status %d (body %q)", resp.StatusCode, body)
	}
	matches, _ = filepath.Glob(filepath.Join(qdir, "upload-*"))
	if len(matches) != 1 {
		t.Fatalf("good upload left a spool file: %v", matches)
	}
}

// A trace in a retired wire format version, 1 or 2, is a malformed upload,
// refused at its own magic whether it opens the upload or follows a good
// trace.
func TestRetiredV1UploadRejected(t *testing.T) {
	s := New(Config{Scale: eval.Tiny(), Cache: stubCache()})
	s.extract = func(ctx context.Context, m *attack.Models, tr *trace.Trace) (*attack.Recovery, error) {
		return &attack.Recovery{}, nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	good := stubUpload(t)
	for _, fixture := range []string{"wire-golden-v1.trace", "wire-golden-v2-six-counters.trace"} {
		old, err := os.ReadFile(filepath.Join("..", "trace", "testdata", fixture))
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name string
			body []byte
			at   int
		}{
			{"alone", old, 0},
			{"after a good trace", append(append([]byte(nil), good...), old...), len(good)},
		} {
			resp, body := postExtract(t, ts.Client(), ts.URL, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s %s: status %d, want 400 (body %q)", fixture, tc.name, resp.StatusCode, body)
			}
			e := decodeError(t, body)
			if e.Error != "malformed_upload" {
				t.Fatalf("%s %s: typed error = %q, want malformed_upload", fixture, tc.name, e.Error)
			}
			if want := fmt.Sprintf("bad magic %q at byte offset %d", old[:8], tc.at); !strings.Contains(e.Detail, want) ||
				!strings.Contains(e.Detail, "re-collect version 1 and 2") {
				t.Fatalf("%s %s: detail %q, want %q naming the version as retired", fixture, tc.name, e.Detail, want)
			}
		}
	}
}

func TestEmptyUploadRejected(t *testing.T) {
	s := New(Config{Scale: eval.Tiny(), Cache: stubCache()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, body := postExtract(t, ts.Client(), ts.URL, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty upload: status %d, want 400", resp.StatusCode)
	}
	if e := decodeError(t, body); e.Error != "malformed_upload" {
		t.Fatalf("typed error = %q, want malformed_upload", e.Error)
	}
}

// ---- model cache ----

func TestCacheSingleFlight(t *testing.T) {
	var trains atomic.Int64
	c := NewModelCache("")
	c.train = func(ctx context.Context, sc eval.Scale) (*attack.Models, error) {
		trains.Add(1)
		time.Sleep(20 * time.Millisecond) // widen the race window
		return &attack.Models{Cfg: attack.FastConfig()}, nil
	}
	sc := eval.Tiny()
	var wg sync.WaitGroup
	got := make([]*attack.Models, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := c.Get(context.Background(), sc)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = m
		}(i)
	}
	wg.Wait()
	if n := trains.Load(); n != 1 {
		t.Fatalf("8 racing Gets trained %d times, want 1", n)
	}
	for i, m := range got {
		if m != got[0] {
			t.Fatalf("Get %d returned a different instance", i)
		}
	}
}

func TestCacheFailedPopulationRetries(t *testing.T) {
	var trains atomic.Int64
	c := NewModelCache("")
	c.train = func(ctx context.Context, sc eval.Scale) (*attack.Models, error) {
		if trains.Add(1) == 1 {
			return nil, errors.New("transient")
		}
		return &attack.Models{Cfg: attack.FastConfig()}, nil
	}
	sc := eval.Tiny()
	if _, err := c.Get(context.Background(), sc); err == nil {
		t.Fatal("first Get should surface the training failure")
	}
	if _, err := c.Get(context.Background(), sc); err != nil {
		t.Fatalf("second Get should retry, got %v", err)
	}
	if n := trains.Load(); n != 2 {
		t.Fatalf("train calls = %d, want 2 (failure not cached)", n)
	}
}

func TestCacheCorruptEntryRebuilt(t *testing.T) {
	dir := t.TempDir()
	var trains atomic.Int64
	mk := func() *ModelCache {
		c := NewModelCache(dir)
		c.train = func(ctx context.Context, sc eval.Scale) (*attack.Models, error) {
			trains.Add(1)
			return &attack.Models{Cfg: attack.FastConfig(), Report: map[string]float64{"Mlong": 0.9}}, nil
		}
		return c
	}
	sc := eval.Tiny()
	if _, err := mk().Get(context.Background(), sc); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "models-"+CacheKey(sc)+".mosmdl")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("populated cache did not persist: %v", err)
	}

	// A fresh process warms from disk without training.
	if _, err := mk().Get(context.Background(), sc); err != nil {
		t.Fatal(err)
	}
	if n := trains.Load(); n != 1 {
		t.Fatalf("warm start trained %d times, want 1", n)
	}

	// Flip one payload bit: the checksum must catch it and the cache must
	// rebuild the entry rather than serve garbage or die.
	raw[len(raw)-1] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	c := mk()
	m, err := c.Get(context.Background(), sc)
	if err != nil {
		t.Fatalf("corrupt cache entry became fatal: %v", err)
	}
	if m.Report["Mlong"] != 0.9 {
		t.Fatalf("rebuild served wrong models: %+v", m.Report)
	}
	if n := trains.Load(); n != 2 {
		t.Fatalf("train calls after corruption = %d, want 2", n)
	}
	if got := c.Stats().CorruptRebuilds; got != 1 {
		t.Fatalf("corrupt_rebuilds = %d, want 1", got)
	}
	// The rebuilt entry is valid on disk again.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := attack.LoadModels(f); err != nil {
		t.Fatalf("rebuilt cache entry does not load: %v", err)
	}
}

// ---- trained-fixture tests: golden identity and the daemon smoke ----

var (
	benchOnce sync.Once
	benchWB   *eval.Workbench
	benchErr  error
)

// tinyBench trains the tiny-scale workbench once for every test that needs
// real models; at tiny scale this is seconds, and both the golden test and
// the daemon smoke share it.
func tinyBench(t *testing.T) *eval.Workbench {
	t.Helper()
	if testing.Short() {
		t.Skip("trained fixture skipped in -short")
	}
	benchOnce.Do(func() { benchWB, benchErr = eval.NewWorkbench(eval.Tiny()) })
	if benchErr != nil {
		t.Fatal(benchErr)
	}
	return benchWB
}

// trainedCache wraps the shared fixture so servers under test skip training.
func trainedCache(t *testing.T) *ModelCache {
	wb := tinyBench(t)
	c := NewModelCache("")
	c.train = func(ctx context.Context, sc eval.Scale) (*attack.Models, error) {
		return wb.Models, nil
	}
	return c
}

// TestCacheDefaultTrainerMatchesWorkbench runs the production population
// path that every other cache test stubs out: a cold Get under the default
// trainer serves a model set whose serialized bytes, Report included, equal
// the tiny workbench's.
func TestCacheDefaultTrainerMatchesWorkbench(t *testing.T) {
	wb := tinyBench(t)
	m, err := NewModelCache("").Get(context.Background(), eval.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	save := func(m *attack.Models) []byte {
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if got, want := save(m), save(wb.Models); !bytes.Equal(got, want) {
		t.Fatalf("cache-trained set (%d bytes) differs from the workbench's (%d bytes)", len(got), len(want))
	}
}

// TestCacheDefaultTrainerCancelled is the drain path: a cold Get whose ctx
// is already dead returns ctx.Err() from the default trainer, and neither
// memory nor disk keeps an entry.
func TestCacheDefaultTrainerCancelled(t *testing.T) {
	dir := t.TempDir()
	c := NewModelCache(dir)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m, err := c.Get(ctx, eval.Tiny())
	if !errors.Is(err, context.Canceled) || m != nil {
		t.Fatalf("Get under a cancelled ctx = %v, %v; want nil, context.Canceled", m, err)
	}
	if s := c.Stats(); s.Entries != 0 || s.Bytes != 0 {
		t.Fatalf("cancelled population left %d entries (%d bytes)", s.Entries, s.Bytes)
	}
	if files, err := os.ReadDir(dir); err != nil || len(files) != 0 {
		t.Fatalf("cancelled population left %d files on disk (%v)", len(files), err)
	}
}

// TestServiceMatchesOfflineGolden pins the acceptance bar: for the same trace
// bytes, the service's extraction is byte-identical to the offline
// `mosconsim -load-traces` path. The recovery fingerprint covers every
// decision the pipeline made, so equal fingerprints mean equal answers.
func TestServiceMatchesOfflineGolden(t *testing.T) {
	wb := tinyBench(t)
	s := New(Config{Scale: eval.Tiny(), Cache: trainedCache(t)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var buf bytes.Buffer
	if err := trace.WriteTraces(&buf, wb.Tested); err != nil {
		t.Fatal(err)
	}
	// Round-trip through the wire format first: the offline reference is
	// what -load-traces would decode, not the in-memory traces.
	decoded, err := trace.ReadTraces(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	resp, body := postExtract(t, ts.Client(), ts.URL, buf.Bytes())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("service extraction: status %d (body %q)", resp.StatusCode, body)
	}
	var out ExtractResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Traces) != len(decoded) {
		t.Fatalf("service extracted %d traces, want %d", len(out.Traces), len(decoded))
	}
	for i, tr := range decoded {
		rec, err := wb.Models.ExtractTrace(tr)
		if err != nil {
			t.Fatalf("offline extraction of %s: %v", tr.Model.Name, err)
		}
		if got, want := out.Traces[i].Fingerprint, rec.Fingerprint(); got != want {
			t.Errorf("trace %d (%s): service fingerprint %s != offline %s",
				i, tr.Model.Name, got, want)
		}
		if out.Traces[i].OpSeq != rec.OpSeq {
			t.Errorf("trace %d: op sequence diverged", i)
		}
	}
}

// TestConcurrentUploadsRecycle posts the tested traces from several
// goroutines at once, each upload holding them in its own order, mixed with
// uploads truncated inside their second trace. Every served trace's buffers
// go back to the trace spares once its response is written, and a failed
// decode gives its buffers back too, so later uploads decode into memory
// earlier ones held. Every 200 must still carry, trace for trace, the
// fingerprint of an extraction from a fresh decode; under -race this also
// checks that no spare is recycled twice or while an upload still uses it.
func TestConcurrentUploadsRecycle(t *testing.T) {
	wb := tinyBench(t)
	s := New(Config{Scale: eval.Tiny(), Cache: trainedCache(t), MaxInFlight: 2, QueueDepth: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	n := len(wb.Tested)
	bodies := make([][]byte, n)
	want := make([]string, n)
	for i, tr := range wb.Tested {
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		bodies[i] = buf.Bytes()
		fresh, err := trace.ReadTrace(bytes.NewReader(bodies[i]))
		if err != nil {
			t.Fatal(err)
		}
		rec, err := wb.Models.ExtractTrace(fresh)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rec.Fingerprint()
	}

	const posters, rounds = 4, 6
	var wg sync.WaitGroup
	for g := 0; g < posters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Upload g+r rotates the traces, so each poster sends them
				// in a different order each round.
				order := make([]int, n)
				var upload []byte
				for k := range order {
					order[k] = (g + r + k) % n
					upload = append(upload, bodies[order[k]]...)
				}
				truncated := (g+r)%3 == 2
				if truncated {
					upload = upload[:len(bodies[order[0]])+len(bodies[order[1]])/2]
				}
				resp, err := ts.Client().Post(ts.URL+"/extract", "application/octet-stream", bytes.NewReader(upload))
				if err != nil {
					t.Error(err)
					return
				}
				var body bytes.Buffer
				_, err = body.ReadFrom(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				if truncated {
					if resp.StatusCode != http.StatusBadRequest {
						t.Errorf("poster %d round %d: truncated upload got status %d, want 400", g, r, resp.StatusCode)
					}
					continue
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("poster %d round %d: status %d (body %q)", g, r, resp.StatusCode, body.Bytes())
					continue
				}
				var out ExtractResponse
				if err := json.Unmarshal(body.Bytes(), &out); err != nil {
					t.Error(err)
					continue
				}
				if len(out.Traces) != n {
					t.Errorf("poster %d round %d: %d traces extracted, want %d", g, r, len(out.Traces), n)
					continue
				}
				for k, i := range order {
					if got := out.Traces[k].Fingerprint; got != want[i] {
						t.Errorf("poster %d round %d: trace %d (%s) fingerprint %s, want the fresh decode's %s",
							g, r, k, wb.Tested[i].Model.Name, got, want[i])
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestDaemonSmoke is the CI smoke: a real daemon on a unix socket, one good
// and one truncated upload, health assertions, then a clean drain.
func TestDaemonSmoke(t *testing.T) {
	wb := tinyBench(t)
	qdir := t.TempDir()
	s := New(Config{
		Scale:         eval.Tiny(),
		MaxInFlight:   2,
		QueueDepth:    4,
		QuarantineDir: qdir,
		Cache:         trainedCache(t),
	})
	sock := filepath.Join(t.TempDir(), "mosconsd.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(l) }()
	if err := s.Warm(context.Background()); err != nil {
		t.Fatal(err)
	}

	client := &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, _, _ string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "unix", sock)
		},
	}}
	base := "http://mosconsd"

	var buf bytes.Buffer
	if _, err := wb.Tested[0].WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	resp, body := postExtract(t, client, base, good)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("good upload over unix socket: status %d (body %q)", resp.StatusCode, body)
	}
	var out ExtractResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Traces) != 1 || out.Traces[0].Fingerprint == "" {
		t.Fatalf("response lacks a fingerprint: %+v", out)
	}
	if out.Traces[0].Health == nil || out.Traces[0].Health.Summary == "" {
		t.Fatalf("response lacks trace health: %+v", out.Traces[0])
	}
	if out.Traces[0].Coverage.Samples != len(wb.Tested[0].Samples) {
		t.Fatalf("coverage samples = %d, want %d",
			out.Traces[0].Coverage.Samples, len(wb.Tested[0].Samples))
	}

	if resp, _ := postExtract(t, client, base, good[:len(good)/2]); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated upload: status %d, want 400", resp.StatusCode)
	}

	hresp, err := client.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz Healthz
	if err := json.NewDecoder(hresp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hz.Status != "ok" || !hz.ModelsReady {
		t.Fatalf("healthz = %+v, want ok with models ready", hz)
	}
	if hz.Metrics.Completed != 1 || hz.Metrics.Quarantined != 1 {
		t.Fatalf("healthz metrics = %+v, want completed 1 quarantined 1", hz.Metrics)
	}
	if hz.Metrics.InFlight != 0 || hz.Metrics.Queued != 0 {
		t.Fatalf("healthz gauges nonzero at idle: %+v", hz.Metrics)
	}

	if err := s.Drain(); err != nil {
		t.Fatalf("clean drain: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("serve loop exit: %v", err)
	}
	if _, err := os.Stat(sock); err == nil {
		// The listener owns the socket file; Serve's close removes it.
		t.Log("socket file still present after drain (harmless)")
	}
}

// TestExtractCancelPropagatesToPipeline drives a real extraction whose
// request deadline is far too short, pinning that the ctx reaches the
// per-sample sweeps (not just the handler).
func TestExtractCancelPropagatesToPipeline(t *testing.T) {
	wb := tinyBench(t)
	s := New(Config{
		Scale:          eval.Tiny(),
		RequestTimeout: time.Nanosecond,
		Cache:          trainedCache(t),
	})
	if err := s.Warm(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var buf bytes.Buffer
	if _, err := wb.Tested[0].WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	resp, body := postExtract(t, ts.Client(), ts.URL, buf.Bytes())
	if resp.StatusCode == http.StatusOK {
		t.Fatalf("nanosecond deadline produced a 200: %q", body)
	}
	e := decodeError(t, body)
	if e.Error != "deadline_exceeded" && e.Error != "cancelled" && e.Error != "cancelled_in_queue" {
		t.Fatalf("typed error = %q, want a cancellation kind (detail %q)", e.Error, e.Detail)
	}
}

func TestCacheKeyDistinguishesScales(t *testing.T) {
	a, b := eval.Tiny(), eval.Tiny()
	b.Seed++
	if CacheKey(a) == CacheKey(b) {
		t.Fatal("different seeds share a cache key")
	}
	if CacheKey(eval.Tiny()) == CacheKey(eval.Mid()) {
		t.Fatal("different scales share a cache key")
	}
	if !strings.Contains(CacheKey(a), fmt.Sprint(a.Seed)) {
		t.Fatalf("key %q does not pin the seed", CacheKey(a))
	}
}
