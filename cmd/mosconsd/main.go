// Command mosconsd runs the MoSConS extraction service: a daemon that accepts
// victim trace uploads over HTTP and/or a unix socket, extracts model secrets
// from them with a warm trained model set, and degrades gracefully under
// overload (bounded queue, typed 429 shedding, per-request deadlines,
// drain-on-SIGTERM). Results are byte-identical to the offline
// `mosconsim -load-traces` pipeline; the response carries the recovery
// fingerprint that pins it.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"leakydnn/internal/eval"
	"leakydnn/internal/journal"
	"leakydnn/internal/profiling"
	"leakydnn/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mosconsd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		httpAddr  = flag.String("http", "", "TCP listen address (e.g. 127.0.0.1:7070); empty disables")
		unixPath  = flag.String("unix", "", "unix socket path; empty disables")
		scaleName = flag.String("scale", "tiny", "experiment scale the daemon serves: tiny, mid, paper")
		seed      = flag.Int64("seed", 0, "simulation seed (0 = the scale's default)")
		workers   = flag.Int("workers", runtime.GOMAXPROCS(0),
			"worker-pool size for model warm-up training")
		inflight = flag.Int("inflight", runtime.GOMAXPROCS(0),
			"maximum concurrently executing extractions")
		queue = flag.Int("queue", 2*runtime.GOMAXPROCS(0),
			"admission queue depth beyond the in-flight slots; requests past inflight+queue are shed with 429")
		timeout = flag.Duration("timeout", 2*time.Minute, "per-request extraction deadline")
		drain   = flag.Duration("drain", 30*time.Second,
			"SIGTERM drain budget: in-flight requests past it are hard-cancelled")
		cacheDir     = flag.String("cache", "", "model-set cache directory; empty keeps trained models in memory only")
		cacheEntries = flag.Int("cache-entries", 0,
			"maximum warm model sets resident at once; LRU sets beyond it are evicted from memory and disk (0 = unlimited)")
		cacheBytes = flag.Int64("cache-bytes", 0,
			"maximum serialized bytes across warm model sets; LRU eviction keeps the total under it (0 = unlimited)")
		qdir   = flag.String("quarantine", "", "directory capturing malformed uploads for postmortem; empty discards them")
		qFiles = flag.Int("quarantine-files", 0,
			"maximum quarantined captures kept; oldest rotate out (0 = 32, negative = unlimited)")
		qBytes = flag.Int64("quarantine-bytes", 0,
			"maximum total quarantined bytes kept; oldest rotate out (0 = 64 MiB, negative = unlimited)")
		journalPath = flag.String("journal", "",
			"result journal: record every served extraction so a restarted daemon (including after SIGKILL) replays known uploads instead of re-extracting")
		maxChunk  = flag.Int64("max-chunk", 0, "per-chunk wire guard in bytes handed to the trace reader (0 = default)")
		warm      = flag.Bool("warm", true, "train/load the model set before accepting traffic")
		pprofAddr = flag.String("pprof", "",
			"opt-in diagnostics: serve /debug/pprof on this TCP address (own listener, never the service mux); empty disables")
	)
	flag.Parse()

	if *httpAddr == "" && *unixPath == "" {
		return fmt.Errorf("no listener: set -http and/or -unix")
	}
	sc, err := eval.ScaleByName(*scaleName)
	if err != nil {
		return err
	}
	if *seed != 0 {
		sc.Seed = *seed
	}
	sc.Workers = *workers

	cache := serve.NewModelCache(*cacheDir)
	cache.SetLimits(*cacheEntries, *cacheBytes)
	cfg := serve.Config{
		Scale:              sc,
		MaxInFlight:        *inflight,
		QueueDepth:         *queue,
		RequestTimeout:     *timeout,
		DrainTimeout:       *drain,
		MaxChunkBytes:      *maxChunk,
		QuarantineDir:      *qdir,
		QuarantineMaxFiles: *qFiles,
		QuarantineMaxBytes: *qBytes,
		Cache:              cache,
	}
	if *journalPath != "" {
		j, err := journal.Open(*journalPath)
		if err != nil {
			return err
		}
		defer j.Close()
		if st := j.Stats(); st.Records > 0 || st.Truncated {
			fmt.Fprintf(os.Stderr, "mosconsd: journal holds %d replayable results (torn tail: %v)\n",
				st.Records, st.Truncated)
		}
		cfg.Journal = j
	}
	s := serve.New(cfg)

	if *warm {
		fmt.Fprintf(os.Stderr, "mosconsd: warming %s model set ...\n", serve.CacheKey(sc))
		warmStart := time.Now()
		if err := s.Warm(context.Background()); err != nil {
			return fmt.Errorf("model warm-up: %w", err)
		}
		fmt.Fprintf(os.Stderr, "mosconsd: models ready in %.1fs\n", time.Since(warmStart).Seconds())
	}

	serveErr := make(chan error, 3)
	if *pprofAddr != "" {
		if err := profiling.ServeHTTP(*pprofAddr, serveErr); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "mosconsd: pprof diagnostics on http://%s/debug/pprof/\n", *pprofAddr)
	}
	var listeners []net.Listener
	listen := func(network, addr string) error {
		l, err := net.Listen(network, addr)
		if err != nil {
			return err
		}
		listeners = append(listeners, l)
		fmt.Fprintf(os.Stderr, "mosconsd: listening on %s %s\n", network, addr)
		go func() { serveErr <- s.Serve(l) }()
		return nil
	}
	if *unixPath != "" {
		// A stale socket from a crashed predecessor blocks the bind; remove
		// it only if nothing answers there.
		if _, err := os.Stat(*unixPath); err == nil {
			if conn, derr := net.DialTimeout("unix", *unixPath, time.Second); derr == nil {
				conn.Close()
				return fmt.Errorf("socket %s already served by a live daemon", *unixPath)
			}
			os.Remove(*unixPath)
		}
		if err := listen("unix", *unixPath); err != nil {
			return err
		}
	}
	if *httpAddr != "" {
		if err := listen("tcp", *httpAddr); err != nil {
			return err
		}
	}

	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	select {
	case <-sigCtx.Done():
		fmt.Fprintf(os.Stderr, "mosconsd: signal received, draining (budget %s) ...\n", *drain)
		err := s.Drain()
		m := s.Metrics()
		fmt.Fprintf(os.Stderr, "mosconsd: drained: %d completed, %d shed, %d cancelled\n",
			m.Completed, m.Shed, m.Cancelled)
		for range listeners {
			<-serveErr // each Serve returns once shutdown closes its listener
		}
		return err
	case err := <-serveErr:
		return fmt.Errorf("listener failed: %w", err)
	}
}
