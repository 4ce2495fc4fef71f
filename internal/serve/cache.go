package serve

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"leakydnn/internal/attack"
	"leakydnn/internal/eval"
)

// ModelCache hands out trained model sets keyed by scale configuration, with
// three robustness properties the daemon depends on:
//
//   - single-flight population: however many requests race on a cold key,
//     exactly one collects traces and trains; the rest block on its result.
//   - disk persistence: a populated set is written (atomically, via rename) to
//     the cache directory, so a restarted daemon warms from disk instead of
//     re-training.
//   - corruption containment: a cached file whose checksum does not verify
//     (attack.ErrModelSetCorrupt) — or that fails to load for any reason — is
//     deleted and rebuilt, never served and never fatal.
//   - bounded residency: SetLimits caps the warm set by entry count and byte
//     budget; the least-recently-used entries are evicted (memory and disk)
//     when a population pushes past either cap, so a daemon serving many
//     scales cannot grow without bound.
type ModelCache struct {
	dir string

	// train builds a model set from scratch. The default collects the scale's
	// profiled traces and trains under ctx; tests substitute a stub.
	train func(ctx context.Context, sc eval.Scale) (*attack.Models, error)

	mu      sync.Mutex
	entries map[string]*cacheEntry
	// useSeq is a logical clock for LRU: every hit or population stamps the
	// entry, so eviction order never depends on wall time.
	useSeq int64
	// maxEntries/maxBytes are the residency caps (0 = unlimited).
	maxEntries int
	maxBytes   int64

	// Counters for /healthz: how population went, not per-request traffic.
	hits            atomic.Int64
	misses          atomic.Int64
	corruptRebuilds atomic.Int64
	persistFailures atomic.Int64
	evictions       atomic.Int64
}

type cacheEntry struct {
	ready  chan struct{} // closed when models/err are set
	models *attack.Models
	err    error
	// bytes is the serialized size of the set (0 when no byte cap is set);
	// lastUse is the useSeq stamp of the most recent Get.
	bytes   int64
	lastUse int64
}

// NewModelCache builds a cache persisting to dir; dir == "" keeps populated
// sets in memory only.
func NewModelCache(dir string) *ModelCache {
	return &ModelCache{
		dir:     dir,
		entries: make(map[string]*cacheEntry),
		train: func(ctx context.Context, sc eval.Scale) (*attack.Models, error) {
			return sc.TrainModelSet(ctx, nil)
		},
	}
}

// SetLimits caps the cache's warm residency: at most maxEntries model sets
// and at most maxBytes of serialized weight across them (0 disables a cap).
// When a population pushes past either cap, the least-recently-used ready
// entries are dropped from memory and their disk files removed; the entry
// that just populated is never its own eviction victim, so a single
// over-budget set still serves.
func (c *ModelCache) SetLimits(maxEntries int, maxBytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if maxEntries < 0 {
		maxEntries = 0
	}
	if maxBytes < 0 {
		maxBytes = 0
	}
	c.maxEntries = maxEntries
	c.maxBytes = maxBytes
	c.evictLocked("")
}

// CacheKey names the model set a scale configuration trains: the scale's name
// and seed pin the profiled zoo, the time constants, and every random draw, so
// two equal keys train byte-identical sets.
func CacheKey(sc eval.Scale) string {
	return fmt.Sprintf("%s-seed%d", sc.Name, sc.Seed)
}

// Stats reports the cache's population counters and current residency.
type CacheStats struct {
	Hits            int64 `json:"hits"`
	Misses          int64 `json:"misses"`
	CorruptRebuilds int64 `json:"corrupt_rebuilds"`
	PersistFailures int64 `json:"persist_failures"`
	Evictions       int64 `json:"evictions"`
	Entries         int   `json:"entries"`
	Bytes           int64 `json:"bytes"`
}

// Stats reads the population counters.
func (c *ModelCache) Stats() CacheStats {
	s := CacheStats{
		Hits:            c.hits.Load(),
		Misses:          c.misses.Load(),
		CorruptRebuilds: c.corruptRebuilds.Load(),
		PersistFailures: c.persistFailures.Load(),
		Evictions:       c.evictions.Load(),
	}
	c.mu.Lock()
	s.Entries = len(c.entries)
	for _, e := range c.entries {
		s.Bytes += e.bytes
	}
	c.mu.Unlock()
	return s
}

// Get returns the trained model set for sc, populating it (from disk or by
// training) exactly once per key however many callers race. The leader
// populates under its own ctx; losers waiting on an in-flight population
// abandon the wait when their ctx dies, without disturbing the population
// itself. A failed population is not cached: the next Get retries.
func (c *ModelCache) Get(ctx context.Context, sc eval.Scale) (*attack.Models, error) {
	key := CacheKey(sc)
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.useSeq++
		e.lastUse = c.useSeq
		c.mu.Unlock()
		c.hits.Add(1)
		select {
		case <-e.ready:
			return e.models, e.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	e := &cacheEntry{ready: make(chan struct{})}
	c.useSeq++
	e.lastUse = c.useSeq
	c.entries[key] = e
	c.mu.Unlock()
	c.misses.Add(1)

	e.models, e.err = c.populate(ctx, sc, key)
	if e.err != nil {
		// Do not poison the key: a transient failure (cancelled warm-up, disk
		// hiccup mid-train) must not make the scale permanently unservable.
		c.mu.Lock()
		delete(c.entries, key)
		c.mu.Unlock()
	} else {
		c.mu.Lock()
		if c.maxBytes > 0 {
			e.bytes = modelSetBytes(e.models)
		}
		c.evictLocked(key)
		c.mu.Unlock()
	}
	close(e.ready)
	return e.models, e.err
}

// evictLocked drops least-recently-used ready entries until both residency
// caps hold again. The keep key (the entry that just populated) and entries
// still populating are never victims. Caller holds c.mu.
func (c *ModelCache) evictLocked(keep string) {
	over := func() bool {
		if c.maxEntries > 0 && len(c.entries) > c.maxEntries {
			return true
		}
		if c.maxBytes > 0 {
			var total int64
			for _, e := range c.entries {
				total += e.bytes
			}
			return total > c.maxBytes
		}
		return false
	}
	for over() {
		victim := ""
		var oldest int64
		for k, e := range c.entries {
			if k == keep {
				continue
			}
			select {
			case <-e.ready:
			default:
				continue // still populating; its bytes are unknown anyway
			}
			if victim == "" || e.lastUse < oldest {
				victim, oldest = k, e.lastUse
			}
		}
		if victim == "" {
			return // nothing evictable: a lone over-budget set still serves
		}
		delete(c.entries, victim)
		if c.dir != "" {
			os.Remove(c.path(victim))
		}
		c.evictions.Add(1)
	}
}

// countWriter measures a model set's serialized size without keeping bytes.
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// modelSetBytes is the byte cost a set charges against the cache budget: its
// serialized size, the same bytes the disk cache would hold.
func modelSetBytes(m *attack.Models) int64 {
	var cw countWriter
	if err := m.Save(&cw); err != nil {
		return 0
	}
	return cw.n
}

func (c *ModelCache) path(key string) string {
	return filepath.Join(c.dir, "models-"+key+".mosmdl")
}

func (c *ModelCache) populate(ctx context.Context, sc eval.Scale, key string) (*attack.Models, error) {
	if c.dir != "" {
		if m, ok := c.loadDisk(key); ok {
			return m, nil
		}
	}
	m, err := c.train(ctx, sc)
	if err != nil {
		return nil, err
	}
	if c.dir != "" {
		// Persistence is best-effort: a read-only or full cache directory
		// degrades to training-per-process, it does not fail the request.
		if err := c.persist(key, m); err != nil {
			c.persistFailures.Add(1)
		}
	}
	return m, nil
}

// loadDisk tries the cached file; any failure past "does not exist" counts as
// a corrupt entry: the file is deleted so the rebuild below replaces it.
func (c *ModelCache) loadDisk(key string) (*attack.Models, bool) {
	f, err := os.Open(c.path(key))
	if err != nil {
		return nil, false
	}
	m, err := attack.LoadModels(f)
	f.Close()
	if err == nil {
		return m, true
	}
	// Checksum mismatch (attack.ErrModelSetCorrupt), truncation, bad magic —
	// all mean the entry cannot be trusted, and all get the same treatment:
	// serving from any of them would be worse than re-training.
	c.corruptRebuilds.Add(1)
	os.Remove(c.path(key))
	return nil, false
}

// persist writes atomically: a same-directory temp file renamed into place, so
// a crash mid-write leaves either the old entry or none — never a torn file
// that the next start would have to checksum-reject.
func (c *ModelCache) persist(key string, m *attack.Models) error {
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(c.dir, "models-*.tmp")
	if err != nil {
		return err
	}
	if err := m.Save(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
