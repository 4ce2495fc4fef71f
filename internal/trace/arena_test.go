package trace

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"sync"
	"testing"

	"leakydnn/internal/cupti"
	"leakydnn/internal/dnn"
	"leakydnn/internal/tfsim"
	"leakydnn/internal/zoo"
)

// wireBytes serialises tr, the byte-identity view the goldens use.
func wireBytes(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// freshCollect collects on a fresh arena: the reference a warm arena's
// collection must match byte for byte.
func freshCollect(t *testing.T, m dnn.Model, cfg RunConfig) *Trace {
	t.Helper()
	tr, err := collectOn(m, cfg, new(Arena))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestRecycledCollectIsByteIdentical poisons a trace's buffers, recycles
// them, and collects a different model into them: the result must equal a
// fresh-arena collection of that model byte for byte, so nothing of the dead
// run — counters, or timeline events past the new length — leaks through.
func TestRecycledCollectIsByteIdentical(t *testing.T) {
	var set arenaSet
	cfg := fastRun(5, 3, true)
	dead, err := set.collect(zoo.TinyVGG(), cfg)
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

	set.recycle(dead)
	if dead.Samples != nil || dead.Timeline != nil {
		t.Fatal("Recycle left the trace holding its buffers")
	}
	if len(set.samples) != 1 || len(set.events) != 1 ||
		cap(set.samples[0]) != len(samples) || cap(set.events[0]) != len(events) {
		t.Fatalf("set holds %d sample and %d event spares, want the recycled pair of capacity %d/%d",
			len(set.samples), len(set.events), len(samples), len(events))
	}
	for _, e := range set.events[0][:cap(set.events[0])] {
		if e.Op != nil {
			t.Fatal("recycled timeline buffer still points at a dead op")
		}
	}

	cfg.Seed = 6
	got, err := set.collect(zoo.TinyCNN(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Samples) == 0 || &got.Samples[0] != &samples[0] {
		t.Fatal("the collection did not append into the recycled sample buffer")
	}
	want := freshCollect(t, zoo.TinyCNN(), cfg)
	if !bytes.Equal(wireBytes(t, got), wireBytes(t, want)) {
		t.Fatal("a collection into recycled buffers differs from a fresh-arena one")
	}
}

// TestRecycledCollectConcurrent runs Collect and Recycle from several
// goroutines on one set; every trace must still match its fresh-arena
// reference. Under -race this also checks that a recycled buffer or an idle
// arena is never shared by two live collections.
func TestRecycledCollectConcurrent(t *testing.T) {
	models := []dnn.Model{zoo.TinyCNN(), zoo.TinyMLP()}
	want := make([][]byte, len(models))
	for i, m := range models {
		want[i] = wireBytes(t, freshCollect(t, m, fastRun(int64(10+i), 2, true)))
	}
	var set arenaSet
	const workers, rounds = 4, 3
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (w + r) % len(models)
				tr, err := set.collect(models[i], fastRun(int64(10+i), 2, true))
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
					t.Errorf("pooled %s trace differs from its fresh-arena reference", models[i].Name)
				}
				set.recycle(tr)
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
		tr, err := collectOn(m, fastRun(3, iterations, true), a)
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

// TestArenaSetBounds checks the set's two bounds and its retention rule: at
// most idleLimit idle arenas, at most idleLimit spare buffers, a full spare
// list trading its smallest buffer for a bigger one (never dropping the
// bigger one), and acquire handing out the largest spare with the set's
// high-water mark.
func TestArenaSetBounds(t *testing.T) {
	limit := idleLimit()
	var set arenaSet
	borrowed := make([]*Arena, limit+2)
	for i := range borrowed {
		borrowed[i] = set.acquire()
	}
	borrowed[0].sampleHigh = 77
	for _, a := range borrowed {
		set.release(a)
	}
	if len(set.idle) != limit {
		t.Fatalf("set keeps %d idle arenas, want GOMAXPROCS = %d", len(set.idle), limit)
	}
	if set.sampleHigh != 77 {
		t.Fatalf("set high-water mark %d, want the released arena's 77", set.sampleHigh)
	}

	// Offer limit small buffers, then one bigger than all of them.
	for i := 0; i < limit; i++ {
		set.recycle(&Trace{Samples: make([]cupti.Sample, 1, 10+i)})
	}
	set.recycle(&Trace{Samples: make([]cupti.Sample, 0, 500)})
	set.recycle(&Trace{Samples: make([]cupti.Sample, 0, 1)})
	if len(set.samples) != limit {
		t.Fatalf("set keeps %d spare sample buffers, want %d", len(set.samples), limit)
	}
	a := set.acquire()
	defer set.release(a)
	if cap(a.samples) != 500 || len(a.samples) != 0 {
		t.Fatalf("acquire handed out a len %d cap %d spare, want the recycled empty cap-500 one",
			len(a.samples), cap(a.samples))
	}
	if a.sampleHigh != 77 {
		t.Fatalf("acquired arena high-water mark %d, want the set's 77", a.sampleHigh)
	}
}

// TestCachedOpsSurviveCollection hashes the compiled op slice every session
// of a model shares, before and after a collect, WriteTo and Recycle round:
// nothing on the collection path may write to it.
func TestCachedOpsSurviveCollection(t *testing.T) {
	m := zoo.TinyVGG()
	cfg := fastRun(8, 2, true)
	sess, err := tfsim.NewSession(m, cfg.Session, cfg.Device)
	if err != nil {
		t.Fatal(err)
	}
	ops := sess.Ops()
	hash := func() [32]byte {
		h := sha256.New()
		for _, op := range ops[:cap(ops)] {
			fmt.Fprintf(h, "%#v\n", op)
		}
		var sum [32]byte
		copy(sum[:], h.Sum(nil))
		return sum
	}
	before := hash()
	for round := 0; round < 2; round++ {
		tr, err := Collect(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if &tr.Ops[0] != &ops[0] {
			t.Fatal("the trace does not share the session's cached ops: the test checks nothing")
		}
		wireBytes(t, tr)
		Recycle(tr)
	}
	if hash() != before {
		t.Fatal("a collect/WriteTo/Recycle round wrote to the shared compiled ops")
	}
	if cap(ops) != len(ops) {
		t.Fatalf("shared ops have capacity %d past length %d: an append would write into the cache", cap(ops), len(ops))
	}
}
