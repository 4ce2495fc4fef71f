package trace

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"leakydnn/internal/dnn"
	"leakydnn/internal/zoo"
)

// singleArenaPool is a pool that always hands out a, even when sync.Pool
// drops it (on GC, or at random under the race detector), so sequential
// tests can see exactly what one arena holds between collections.
func singleArenaPool(a *Arena) *ArenaPool {
	return &ArenaPool{pool: sync.Pool{New: func() any { return a }}}
}

// wireBytes serialises tr, the byte-identity view the goldens use.
func wireBytes(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRecycledCollectIsByteIdentical poisons a trace's buffers, recycles
// them, and collects a different model into them: the result must equal an
// arena-less collection of that model byte for byte, so nothing of the dead
// run — counters, or timeline events past the new length — leaks through.
func TestRecycledCollectIsByteIdentical(t *testing.T) {
	a := new(Arena)
	pool := singleArenaPool(a)
	cfg := fastRun(5, 3, true)
	cfg.Arenas = pool
	dead, err := Collect(zoo.TinyVGG(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	samples := dead.Samples[:cap(dead.Samples)]
	for i := range samples {
		samples[i].Start, samples[i].End = -7, -3
		for e := range samples[i].Values {
			samples[i].Values[e] = math.NaN()
		}
	}
	events := dead.Timeline.Events()
	events = events[:cap(events)]
	bogus := &dnn.Op{Kind: dnn.OpKind(250), Seq: -1}
	for i := range events {
		events[i].Op, events[i].Iteration, events[i].Start, events[i].End = bogus, 99, 1, 1<<40
	}

	pool.Recycle(dead)
	if dead.Samples != nil || dead.Timeline != nil {
		t.Fatal("Recycle left the trace holding its buffers")
	}
	if cap(a.samples) != len(samples) || cap(a.events) != len(events) {
		t.Fatalf("arena holds sample/event capacity %d/%d, want the recycled %d/%d",
			cap(a.samples), cap(a.events), len(samples), len(events))
	}
	for _, e := range a.events[:cap(a.events)] {
		if e.Op != nil {
			t.Fatal("recycled timeline buffer still points at a dead op")
		}
	}

	cfg.Seed = 6
	got, err := Collect(zoo.TinyCNN(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Samples) == 0 || &got.Samples[0] != &samples[0] {
		t.Fatal("the collection did not append into the recycled sample buffer")
	}
	fresh := cfg
	fresh.Arenas = nil
	want, err := Collect(zoo.TinyCNN(), fresh)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wireBytes(t, got), wireBytes(t, want)) {
		t.Fatal("a collection into recycled buffers differs from an arena-less one")
	}
}

// TestRecycledCollectConcurrent runs Collect and Recycle from several
// goroutines on one pool; every trace must still match its arena-less
// reference. Under -race this also checks that a recycled buffer is never
// shared by two live collections.
func TestRecycledCollectConcurrent(t *testing.T) {
	models := []dnn.Model{zoo.TinyCNN(), zoo.TinyMLP()}
	want := make([][]byte, len(models))
	for i, m := range models {
		tr, err := Collect(m, fastRun(int64(10+i), 2, true))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = wireBytes(t, tr)
	}
	pool := NewArenaPool()
	const workers, rounds = 4, 3
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (w + r) % len(models)
				cfg := fastRun(int64(10+i), 2, true)
				cfg.Arenas = pool
				tr, err := Collect(models[i], cfg)
				if err != nil {
					t.Error(err)
					return
				}
				var buf bytes.Buffer
				if _, err := tr.WriteTo(&buf); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(buf.Bytes(), want[i]) {
					t.Errorf("pooled %s trace differs from its arena-less reference", models[i].Name)
				}
				pool.Recycle(tr)
			}
		}(w)
	}
	wg.Wait()
}

// TestArenaSampleBufferTracksHighWater collects large, small, large on one
// arena without recycling: the third collection's fresh sampler buffer must
// be sized to the first's count, not the second's, so it never regrows.
func TestArenaSampleBufferTracksHighWater(t *testing.T) {
	a := new(Arena)
	run := func(m dnn.Model, iterations int) *Trace {
		t.Helper()
		cfg := fastRun(3, iterations, true)
		cfg.Arenas = singleArenaPool(a)
		tr, err := Collect(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	large := run(zoo.TinyVGG(), 4)
	small := run(zoo.TinyMLP(), 1)
	if len(small.Samples) >= len(large.Samples) {
		t.Fatalf("small run has %d samples, large %d: the geometry does not test the mark",
			len(small.Samples), len(large.Samples))
	}
	again := run(zoo.TinyVGG(), 4)
	if a.sampleHigh != len(large.Samples) {
		t.Errorf("high-water mark %d, want the largest count %d", a.sampleHigh, len(large.Samples))
	}
	if cap(again.Samples) != len(again.Samples) {
		t.Errorf("third collection's buffer grew to capacity %d for %d samples: it was not sized to the high-water mark",
			cap(again.Samples), len(again.Samples))
	}
}
