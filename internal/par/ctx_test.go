package par

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestMapCtxUncancelledMatchesMap pins the load-bearing identity: with a live
// context both fan-outs are byte-identical to the serial workers=1 loop for
// any worker count, including task order of the result slice.
func TestMapCtxUncancelledMatchesMap(t *testing.T) {
	const n = 200
	fn := func(i int) (string, error) {
		return fmt.Sprintf("task-%03d", i*i), nil
	}
	want, err := MapCtx(context.Background(), 1, n, fn)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 0} {
		got, err := MapCtx(context.Background(), workers, n, fn)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: result[%d] = %q, want %q", workers, i, got[i], want[i])
			}
		}
		got, err = MapOnCtx(context.Background(), NewPool(workers), n, fn)
		if err != nil {
			t.Fatalf("pool workers=%d: %v", workers, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("pool workers=%d: result[%d] = %q, want %q", workers, i, got[i], want[i])
			}
		}
	}
	if _, err := MapCtx(nil, 2, n, fn); err != nil { //nolint:staticcheck // nil ctx tolerated by contract
		t.Fatalf("nil ctx: %v", err)
	}
}

// TestMapCtxCancelStopsScheduling cancels while the first wave of tasks is
// in flight and checks all three cancellation guarantees: the in-flight tasks
// run to completion, no new index is dispatched afterwards, and the call
// reports ctx.Err().
func TestMapCtxCancelStopsScheduling(t *testing.T) {
	const n, workers = 64, 4
	ctx, cancel := context.WithCancel(context.Background())
	var started, finished atomic.Int64
	gate := make(chan struct{})
	var once sync.Once
	_, err := MapCtx(ctx, workers, n, func(i int) (int, error) {
		started.Add(1)
		// The first wave parks until the cancellation below has landed.
		once.Do(func() {
			cancel()
			close(gate)
		})
		<-gate
		finished.Add(1)
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Every started task finished (in-flight work is never abandoned), and
	// the cancellation capped dispatch at the first wave: at most one task
	// per worker was running when cancel() fired, and each worker may have
	// claimed at most one more index before observing the cancellation.
	if s, f := started.Load(), finished.Load(); s != f {
		t.Fatalf("started %d tasks but finished %d", s, f)
	}
	if s := started.Load(); s > 2*workers {
		t.Fatalf("%d tasks started after cancellation, want <= %d", s, 2*workers)
	}
}

// TestMapOnCtxCancelAbandonsSlotWait parks one task on the pool's only slot
// and cancels a second fan-out queued behind it: the queued fan-out must
// return promptly with ctx.Err() instead of holding its queue position until
// the slot frees.
func TestMapOnCtxCancelAbandonsSlotWait(t *testing.T) {
	pool := NewPool(1)
	hold := make(chan struct{})
	running := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := MapOnCtx(context.Background(), pool, 1, func(i int) (int, error) {
			close(running)
			<-hold
			return i, nil
		})
		if err != nil {
			t.Errorf("slot holder: %v", err)
		}
	}()
	<-running

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := MapOnCtx(ctx, pool, 4, func(i int) (int, error) { return i, nil })
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled fan-out still waiting for a pool slot")
	}
	close(hold)
	wg.Wait()
}

// TestMapCtxSerialPathHonoursCancel covers the workers==1 fast path.
func TestMapCtxSerialPathHonoursCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran int
	_, err := MapCtx(ctx, 1, 10, func(i int) (int, error) {
		ran++
		if i == 2 {
			cancel()
		}
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran != 3 {
		t.Fatalf("ran %d tasks, want 3 (cancel lands before index 3)", ran)
	}
}

// TestMapOnCtxOneSlotHonoursCancel is the serial-path guarantee on a
// one-slot pool: a free slot must not race a done context, so no index is
// dispatched after the cancellation lands. Repeated because a select between
// the two would pick the slot about half the time.
func TestMapOnCtxOneSlotHonoursCancel(t *testing.T) {
	for range 32 {
		ctx, cancel := context.WithCancel(context.Background())
		var ran int
		_, err := MapOnCtx(ctx, NewPool(1), 10, func(i int) (int, error) {
			ran++
			if i == 2 {
				cancel()
			}
			return i, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if ran != 3 {
			t.Fatalf("ran %d tasks, want 3 (cancel lands before index 3)", ran)
		}
	}
}

// TestMapCtxTaskErrorBeatsCancel: when a task fails and the context is then
// cancelled, the task error keeps its lowest-index precedence.
func TestMapCtxTaskErrorBeatsCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	boom := errors.New("boom")
	_, err := MapCtx(ctx, 2, 8, func(i int) (int, error) {
		if i == 0 {
			cancel()
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want task error to win over cancellation", err)
	}
}

// TestMapCtxCancelAfterCompletionReturnsResults: a cancellation that lands
// after every index was dispatched and completed must not discard the full
// result set.
func TestMapCtxCancelAfterCompletionReturnsResults(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int64
	res, err := MapCtx(ctx, 4, 16, func(i int) (int, error) {
		if ran.Add(1) == 16 {
			// Last task cancels on the way out: all work is already done.
			cancel()
		}
		return i * 2, nil
	})
	// Both outcomes are legal under the race between the final worker's exit
	// check and cancel(), but a full result set must never come back with an
	// error, and an error must never come back with results.
	if err == nil {
		for i, v := range res {
			if v != i*2 {
				t.Fatalf("res[%d] = %d, want %d", i, v, i*2)
			}
		}
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want nil or context.Canceled", err)
	}
}
