package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestMapOnPreservesOrder(t *testing.T) {
	for _, slots := range []int{1, 2, 4, 16} {
		p := NewPool(slots)
		got, err := MapOnCtx(context.Background(), p, 50, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("slots=%d: got[%d] = %d, want %d", slots, i, v, i*i)
			}
		}
	}
}

func TestMapOnNilPoolFallsBack(t *testing.T) {
	got, err := MapOnCtx[int](context.Background(), nil, 10, func(i int) (int, error) { return i + 1, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("got[%d] = %d, want %d", i, v, i+1)
		}
	}
}

func TestMapOnReturnsLowestIndexError(t *testing.T) {
	want := errors.New("boom-3")
	_, err := MapOnCtx(context.Background(), NewPool(4), 20, func(i int) (int, error) {
		if i == 3 || i == 7 {
			return 0, fmt.Errorf("boom-%d", i)
		}
		return i, nil
	})
	if err == nil || err.Error() != want.Error() {
		t.Fatalf("err = %v, want %v", err, want)
	}
}

// Two concurrent MapOnCtx fan-outs on the same pool must never exceed the pool's
// slot budget in actually-running tasks — the whole point of sharing one
// budget across overlapped pipeline stages.
func TestMapOnSharesOneBudget(t *testing.T) {
	const slots = 3
	p := NewPool(slots)
	var running, peak atomic.Int64
	task := func(int) (struct{}, error) {
		n := running.Add(1)
		for {
			cur := peak.Load()
			if n <= cur || peak.CompareAndSwap(cur, n) {
				break
			}
		}
		running.Add(-1)
		return struct{}{}, nil
	}
	var wg sync.WaitGroup
	for f := 0; f < 2; f++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := MapOnCtx(context.Background(), p, 40, task); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := peak.Load(); got > slots {
		t.Fatalf("observed %d concurrent tasks, pool budget is %d", got, slots)
	}
}

func TestPoolSlots(t *testing.T) {
	if got, want := NewPool(5).Slots(), min(5, runtime.GOMAXPROCS(0)); got != want {
		t.Fatalf("Slots() = %d, want %d (capped at GOMAXPROCS)", got, want)
	}
	if got := NewPool(0).Slots(); got < 1 {
		t.Fatalf("Slots() = %d for default pool, want >= 1", got)
	}
}

// Slots returns the pool's concurrency budget.
func (p *Pool) Slots() int { return cap(p.sem) }
