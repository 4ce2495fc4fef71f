// Command loadgen drives a running mosconsd with a seeded mix of good,
// truncated, slow, and client-cancelled trace uploads, and reports what the
// daemon sustained: traces/sec, latency percentiles over successful requests,
// and the shed rate. It is the harness behind EXPERIMENTS.md's
// sustained-throughput table — run it at 2x the sustainable rate and the
// daemon must shed with typed 429s while p99 stays bounded.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"leakydnn/internal/eval"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

type outcome int

const (
	outOK outcome = iota
	outShed
	outMalformed
	outCancelledByUs
	outServerCancel
	outOtherError
	numOutcomes
)

var outcomeName = [numOutcomes]string{
	"ok", "shed (429)", "malformed (400)", "client-aborted", "server-cancelled", "other-error",
}

// sample is one upload's result.
type sample struct {
	outcome outcome
	latency time.Duration
	traces  int
}

func run() error {
	var (
		httpAddr  = flag.String("http", "", "daemon TCP address (e.g. 127.0.0.1:7070)")
		unixPath  = flag.String("unix", "", "daemon unix socket path")
		scaleName = flag.String("scale", "tiny", "scale whose tested traces are uploaded: tiny, mid, paper")
		seed      = flag.Int64("seed", 1, "mix and jitter seed; equal seeds replay the same request schedule")
		workers   = flag.Int("concurrency", 8, "concurrent uploaders")
		duration  = flag.Duration("duration", 10*time.Second, "how long to sustain the load")
		timeout   = flag.Duration("timeout", time.Minute, "client-side request timeout")
		pGood     = flag.Float64("p-good", 0.7, "fraction of well-formed uploads")
		pTrunc    = flag.Float64("p-truncated", 0.1, "fraction of uploads cut mid-stream")
		pSlow     = flag.Float64("p-slow", 0.1, "fraction of uploads dripped slowly (well-formed, slow body)")
		pCancel   = flag.Float64("p-cancel", 0.1, "fraction of uploads the client abandons mid-flight")
	)
	flag.Parse()
	if *httpAddr == "" && *unixPath == "" {
		return fmt.Errorf("no target: set -http or -unix")
	}
	if *httpAddr != "" && *unixPath != "" {
		return fmt.Errorf("set only one of -http and -unix")
	}
	total := *pGood + *pTrunc + *pSlow + *pCancel
	if total <= 0 {
		return fmt.Errorf("upload mix sums to %v, want > 0", total)
	}

	sc, err := eval.ScaleByName(*scaleName)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "loadgen: collecting %d victim traces at %s scale ...\n",
		len(sc.Tested), sc.Name)
	tested, err := sc.CollectTraces(context.Background(), nil, sc.Tested, eval.StreamTested)
	if err != nil {
		return err
	}
	payloads := make([][]byte, len(tested))
	for i, tr := range tested {
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			return err
		}
		payloads[i] = buf.Bytes()
	}

	client, base := newClient(*httpAddr, *unixPath)
	client.Timeout = 0 // per-request contexts carry the deadline

	var (
		mu      sync.Mutex
		samples []sample
	)
	record := func(s sample) {
		mu.Lock()
		samples = append(samples, s)
		mu.Unlock()
	}

	start := time.Now()
	deadline := start.Add(*duration)
	var wg sync.WaitGroup
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(w)*7919))
			for time.Now().Before(deadline) {
				body := payloads[rng.Intn(len(payloads))]
				kind := pick(rng, []float64{*pGood, *pTrunc, *pSlow, *pCancel})
				record(uploadOnce(client, base, body, kind, rng, *timeout))
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)

	var counts [numOutcomes]int
	var okLatencies []time.Duration
	tracesDone := 0
	for _, s := range samples {
		counts[s.outcome]++
		if s.outcome == outOK {
			okLatencies = append(okLatencies, s.latency)
			tracesDone += s.traces
		}
	}
	fmt.Printf("loadgen: %d requests in %.1fs (%.1f req/s, %.1f traces/s sustained)\n",
		len(samples), wall.Seconds(),
		float64(len(samples))/wall.Seconds(), float64(tracesDone)/wall.Seconds())
	for o := outcome(0); o < numOutcomes; o++ {
		if counts[o] > 0 {
			fmt.Printf("  %-18s %6d\n", outcomeName[o]+":", counts[o])
		}
	}
	if len(okLatencies) > 0 {
		sort.Slice(okLatencies, func(i, j int) bool { return okLatencies[i] < okLatencies[j] })
		fmt.Printf("latency (ok): p50 %s  p99 %s  max %s\n",
			percentile(okLatencies, 0.50), percentile(okLatencies, 0.99),
			okLatencies[len(okLatencies)-1])
	}
	fmt.Printf("shed rate: %.1f%%\n", 100*float64(counts[outShed])/float64(max(1, len(samples))))
	return nil
}

// pick draws an index weighted by w.
func pick(rng *rand.Rand, w []float64) int {
	total := 0.0
	for _, v := range w {
		total += v
	}
	x := rng.Float64() * total
	for i, v := range w {
		if x < v {
			return i
		}
		x -= v
	}
	return len(w) - 1
}

const (
	kindGood = iota
	kindTruncated
	kindSlow
	kindCancel
)

// slowReader drips its payload with a delay per chunk, simulating a client on
// a bad link; the daemon's request deadline bounds how long it tolerates us.
type slowReader struct {
	data  []byte
	chunk int
	delay time.Duration
}

func (s *slowReader) Read(p []byte) (int, error) {
	if len(s.data) == 0 {
		return 0, io.EOF
	}
	time.Sleep(s.delay)
	n := min(min(s.chunk, len(p)), len(s.data))
	copy(p, s.data[:n])
	s.data = s.data[n:]
	return n, nil
}

func uploadOnce(client *http.Client, base string, body []byte, kind int,
	rng *rand.Rand, timeout time.Duration) (s sample) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()

	var payload io.Reader
	switch kind {
	case kindTruncated:
		cut := 1 + rng.Intn(len(body)-1)
		payload = bytes.NewReader(body[:cut])
	case kindSlow:
		payload = &slowReader{data: body, chunk: 4096, delay: 2 * time.Millisecond}
	case kindCancel:
		payload = bytes.NewReader(body)
		abort := time.Duration(rng.Intn(20)) * time.Millisecond
		go func() {
			time.Sleep(abort)
			cancel()
		}()
	default:
		payload = bytes.NewReader(body)
	}

	begin := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/extract", payload)
	if err != nil {
		s.outcome = outOtherError
		return s
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := client.Do(req)
	s.latency = time.Since(begin)
	if err != nil {
		if kind == kindCancel || ctx.Err() != nil {
			s.outcome = outCancelledByUs
		} else {
			s.outcome = outOtherError
		}
		return s
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		var out struct {
			Traces []json.RawMessage `json:"traces"`
		}
		if json.NewDecoder(resp.Body).Decode(&out) == nil {
			s.traces = len(out.Traces)
		}
		s.outcome = outOK
	case http.StatusTooManyRequests:
		s.outcome = outShed
	case http.StatusBadRequest:
		s.outcome = outMalformed
	case http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		s.outcome = outServerCancel
	default:
		s.outcome = outOtherError
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for connection reuse
	return s
}

func newClient(httpAddr, unixPath string) (*http.Client, string) {
	if unixPath != "" {
		return &http.Client{Transport: &http.Transport{
			DialContext: func(ctx context.Context, _, _ string) (net.Conn, error) {
				var d net.Dialer
				return d.DialContext(ctx, "unix", unixPath)
			},
		}}, "http://mosconsd"
	}
	return &http.Client{}, "http://" + httpAddr
}

func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i].Round(time.Millisecond)
}
