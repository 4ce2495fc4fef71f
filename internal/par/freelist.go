package par

import (
	"runtime"
	"sync"
)

// FreeList is a bounded free list of idle working memory: scratch an
// operation borrows with Get, grows to fit, and hands on with Put once
// nothing it returned points into it. Unlike a sync.Pool it is never
// emptied by the garbage collector, so whether a warm operation allocates
// does not depend on GC timing. It keeps at most GOMAXPROCS idle entries —
// one per operation that can run at once — so what it retains is bounded by
// that many of the largest entries the process has grown. The zero value is
// ready to use.
type FreeList[T any] struct {
	mu   sync.Mutex
	idle []*T
}

// Get borrows an idle entry, or a new zero one.
func (l *FreeList[T]) Get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.idle)
	if n == 0 {
		return new(T)
	}
	v := l.idle[n-1]
	l.idle[n-1] = nil
	l.idle = l.idle[:n-1]
	return v
}

// Put returns a borrowed entry whose operation has finished; past the idle
// limit it is left to the garbage collector.
func (l *FreeList[T]) Put(v *T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.idle) < runtime.GOMAXPROCS(0) {
		l.idle = append(l.idle, v)
	}
}
