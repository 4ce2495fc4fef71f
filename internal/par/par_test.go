package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got, want := Workers(7), min(7, runtime.GOMAXPROCS(0)); got != want {
		t.Fatalf("Workers(7) = %d, want %d (capped at GOMAXPROCS)", got, want)
	}
	if got := Workers(1); got != 1 {
		t.Fatalf("Workers(1) = %d, want 1", got)
	}
}

func TestMapPreservesOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		got, err := MapCtx(context.Background(), workers, 50, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 50 {
			t.Fatalf("workers=%d: %d results, want 50", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := MapCtx(context.Background(), 4, 0, func(i int) (int, error) { return 0, nil })
	if err != nil || got != nil {
		t.Fatalf("MapCtx(ctx, 4, 0) = %v, %v", got, err)
	}
}

// The error of the lowest failing index must win, regardless of completion
// order — exactly what a serial loop would have returned first.
func TestMapReturnsLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		_, err := MapCtx(context.Background(), workers, 20, func(i int) (int, error) {
			if i == 3 || i == 11 {
				return 0, fmt.Errorf("task %d failed", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "task 3 failed" {
			t.Fatalf("workers=%d: err = %v, want task 3's error", workers, err)
		}
	}
}

// After a failure no new work may start (tasks already running finish).
func TestMapFailFast(t *testing.T) {
	var started atomic.Int64
	release := make(chan struct{})
	var once sync.Once
	_, err := MapCtx(context.Background(), 2, 100, func(i int) (int, error) {
		started.Add(1)
		if i == 0 {
			return 0, errors.New("boom")
		}
		once.Do(func() { close(release) })
		<-release
		return i, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	// Worker A fails index 0; worker B may have started index 1 and possibly
	// a couple more before observing the failure flag, but nowhere near all.
	if n := started.Load(); n > 10 {
		t.Fatalf("%d tasks started after failure, want fail-fast", n)
	}
}

func TestMapActuallyRunsConcurrently(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("single-core runner")
	}
	var inFlight, peak atomic.Int64
	_, err := MapCtx(context.Background(), 4, 16, func(i int) (int, error) {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
		inFlight.Add(-1)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak.Load() < 2 {
		t.Fatalf("peak concurrency %d, want >= 2", peak.Load())
	}
}
