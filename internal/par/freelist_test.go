package par

import (
	"runtime"
	"sync"
	"testing"
)

// A free list hands back what was put, newest first, keeps at most
// GOMAXPROCS idle entries, and makes a zero entry when it has none.
func TestFreeListBounded(t *testing.T) {
	var l FreeList[int]
	limit := runtime.GOMAXPROCS(0)
	put := make(map[*int]bool)
	for i := 0; i < limit+3; i++ {
		v := new(int)
		*v = i + 1
		put[v] = true
		l.Put(v)
	}
	for i := 0; i < limit; i++ {
		v := l.Get()
		if !put[v] {
			t.Fatalf("Get %d returned an entry never put", i)
		}
		if want := limit - i; *v != want {
			t.Fatalf("Get %d returned entry %d, want %d (newest idle first)", i, *v, want)
		}
	}
	if v := l.Get(); put[v] || *v != 0 {
		t.Fatalf("list kept more than GOMAXPROCS=%d idle entries", limit)
	}
}

// Concurrent borrowers never share an entry. Run under -race.
func TestFreeListConcurrent(t *testing.T) {
	var l FreeList[[4]int]
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 200; r++ {
				v := l.Get()
				for i := range v {
					if v[i] != 0 {
						t.Errorf("goroutine %d borrowed an entry another still holds", g)
						return
					}
					v[i] = g + 1
				}
				*v = [4]int{}
				l.Put(v)
			}
		}()
	}
	wg.Wait()
}
