// Package par provides the deterministic worker pool the evaluation pipeline
// fans out on. Every experiment task already owns an independent seeded RNG
// and simulator engine, so tasks can run concurrently as long as the pool
// preserves three properties: results come back in task order, errors are
// reported as the serial loop would report them (the lowest-index failure
// wins), and no new work starts after a failure (fail-fast). MapCtx and
// MapOnCtx guarantee all three through one worker loop, which is what makes
// parallel table generation byte-identical to the workers=1 serial run.
//
// FreeList is the one way working memory outlives an operation, a bounded
// free list the next operation borrows from: extraction matrices in attack,
// every LSTM pass's forward and training buffers in lstm, collection arenas,
// dead traces' sample and event buffers and wire-format staging buffers in
// trace, and journal record buffers in fleet.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count setting: n <= 0 selects
// runtime.GOMAXPROCS(0), and positive settings are capped there too. Every
// task the pools run is CPU-bound (simulation, training) and every result
// is worker-invariant, so goroutines beyond the schedulable parallelism can
// only add scheduling overhead — on a single-core runner the pre-cap
// Workers=4 training fan-out paid ~4% for nothing.
func Workers(n int) int {
	max := runtime.GOMAXPROCS(0)
	if n <= 0 || n > max {
		return max
	}
	return n
}

// MapCtx runs fn(0..n-1) on at most workers goroutines and returns the
// results in index order. workers <= 0 selects runtime.GOMAXPROCS(0);
// workers == 1 runs serially on the calling goroutine. If any call fails,
// the error of the lowest failed index is returned (matching what a serial
// loop would have hit first) and no further indices are dispatched, though
// calls already in flight run to completion.
//
// Cancellation is cooperative: once ctx is done, no new index is
// dispatched, but calls already in flight run to completion (a task owns
// resources mid-run; killing it non-cooperatively would corrupt them). The
// lowest-index task error still wins, and ctx.Err() is reported only when
// cancellation actually prevented indices from being dispatched. A run that
// completes every task before the cancellation lands returns the full,
// byte-identical result set. A nil ctx is treated as context.Background().
func MapCtx[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		results := make([]T, n)
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			r, err := fn(i)
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
		return results, nil
	}
	return fanOut(ctx, nil, workers, n, fn)
}

// Pool is a shared execution-slot budget: several MapOnCtx fan-outs,
// possibly running concurrently from different goroutines, draw slots from
// the same semaphore, so a pipeline whose stages overlap — trace collection
// feeding model training, say — never runs more than the budget's worth of
// tasks at once. Build one with NewPool; the zero Pool is not usable.
type Pool struct {
	sem chan struct{}
}

// NewPool builds a pool with the given number of slots; n <= 0 selects
// runtime.GOMAXPROCS(0).
func NewPool(n int) *Pool {
	return &Pool{sem: make(chan struct{}, Workers(n))}
}

// MapOnCtx is MapCtx drawing its concurrency from the shared pool p instead
// of a private worker set, with the same guarantees. Each task holds a pool
// slot only while fn runs, so a goroutine blocked in MapOnCtx never starves
// a concurrent fan-out on the same pool. A task waiting for a slot abandons
// the wait the moment ctx is done (a dead client must not keep a queue
// position). A nil pool falls back to MapCtx with the default worker count.
func MapOnCtx[T any](ctx context.Context, p *Pool, n int, fn func(i int) (T, error)) ([]T, error) {
	if p == nil {
		return MapCtx(ctx, 0, n, fn)
	}
	if n <= 0 {
		return nil, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return fanOut(ctx, p.sem, min(cap(p.sem), n), n, fn)
}

// fanOut is the worker loop behind both fan-outs: workers goroutines claim
// indices in order, each task holding a slot of sem while it runs when sem
// is non-nil.
func fanOut[T any](ctx context.Context, sem chan struct{}, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	errs := make([]error, n)
	var next, failed atomic.Int64
	var cancelled atomic.Bool
	failed.Store(int64(n)) // sentinel: no failure yet
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || int64(i) > failed.Load() {
					return
				}
				// The claim-then-check order makes the cancelled flag precise:
				// it is set iff a claimed index was abandoned, i.e. iff the
				// result set is actually incomplete. The check comes before
				// the slot wait because a select between a free slot and a
				// done ctx picks either; on a pool the select then bounds the
				// wait, so a cancelled fan-out drains out of the pool's queue
				// instead of holding a position in it.
				if ctx.Err() != nil {
					cancelled.Store(true)
					return
				}
				if sem != nil {
					select {
					case sem <- struct{}{}:
					case <-ctx.Done():
						cancelled.Store(true)
						return
					}
				}
				r, err := fn(i)
				if sem != nil {
					<-sem
				}
				if err != nil {
					errs[i] = err
					// Record the lowest failing index so later work stops.
					for {
						cur := failed.Load()
						if int64(i) >= cur || failed.CompareAndSwap(cur, int64(i)) {
							break
						}
					}
					continue
				}
				results[i] = r
			}
		}()
	}
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if cancelled.Load() {
		return nil, ctx.Err()
	}
	return results, nil
}
