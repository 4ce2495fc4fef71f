package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"leakydnn/internal/attack"
	"leakydnn/internal/eval"
	"leakydnn/internal/trace"
)

// FuzzUploadHandler posts arbitrary bodies to /extract through the daemon's
// own handler. Whatever the bytes, the answer is 200, 400, 429 or 503 — a
// body can be extracted, be malformed, or meet overload or drain, and
// nothing else — and after every request the admission counters balance:
// each admitted request ended completed, failed, cancelled or quarantined.
// The stub extraction reads every decoded sample, so under -race a trace
// recycled while an extraction still reads it is reported.
func FuzzUploadHandler(f *testing.F) {
	good := stubUpload(f)
	f.Add(good)
	f.Add(good[:len(good)-5])
	f.Add(append(append([]byte(nil), good...), good...))
	f.Add([]byte{})
	f.Add([]byte("MOSCONS\x03"))
	for _, fixture := range []string{"wire-golden-v1.trace", "wire-golden-v2-six-counters.trace"} {
		old, err := os.ReadFile(filepath.Join("..", "trace", "testdata", fixture))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(old)
	}

	s := New(Config{Scale: eval.Tiny(), Cache: stubCache()})
	s.extract = func(ctx context.Context, m *attack.Models, tr *trace.Trace) (*attack.Recovery, error) {
		var sum int64
		for _, smp := range tr.Samples {
			sum += int64(smp.Start)
		}
		_ = sum
		return &attack.Recovery{}, nil
	}
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/extract", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
			var resp ExtractResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || len(resp.Traces) == 0 {
				t.Fatalf("200 with body %q (decode error %v)", rec.Body.Bytes(), err)
			}
		case http.StatusBadRequest, http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Fatalf("status %d for a %d-byte upload (body %q)", rec.Code, len(body), rec.Body.Bytes())
		}
		m := s.Metrics()
		if ended := m.Completed + m.Failed + m.Cancelled + m.Quarantined; m.Admitted != ended {
			t.Fatalf("admitted %d, but completed %d + failed %d + cancelled %d + quarantined %d = %d",
				m.Admitted, m.Completed, m.Failed, m.Cancelled, m.Quarantined, ended)
		}
	})
}
