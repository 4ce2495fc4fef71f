package trace

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

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

// resetLists empties the spare list and zeroes the sample high-water mark,
// as in a process that has collected and recycled nothing yet.
func resetLists() {
	for range runtime.GOMAXPROCS(0) {
		spares.Get()
	}
	sampleHigh.Store(0)
}

// TestRecycledCollectIsByteIdentical poisons a trace's buffers, recycles
// them, and collects a different model into them: the result must equal a
// fresh-arena collection of that model byte for byte, so nothing of the dead
// run — counters, or timeline events past the new length — leaks through.
func TestRecycledCollectIsByteIdentical(t *testing.T) {
	resetLists()
	cfg := fastRun(5, 3, true)
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

	Recycle(dead)
	if dead.Samples != nil || dead.Timeline != nil {
		t.Fatal("Recycle left the trace holding its buffers")
	}
	spare := spares.Get()
	if cap(spare.samples) != len(samples) || cap(spare.events) != len(events) {
		t.Fatalf("top spare pair has capacity %d/%d, want the recycled pair's %d/%d",
			cap(spare.samples), cap(spare.events), len(samples), len(events))
	}
	for _, e := range spare.events[:cap(spare.events)] {
		if e.Op != nil {
			t.Fatal("recycled timeline buffer still points at a dead op")
		}
	}
	spares.Put(spare)

	cfg.Seed = 6
	got, err := Collect(zoo.TinyCNN(), cfg)
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
// goroutines; every trace must still match its fresh-arena reference. Under
// -race this also checks that a spare pair or an idle arena is never shared
// by two live collections.
func TestRecycledCollectConcurrent(t *testing.T) {
	models := []dnn.Model{zoo.TinyCNN(), zoo.TinyMLP()}
	want := make([][]byte, len(models))
	for i, m := range models {
		want[i] = wireBytes(t, freshCollect(t, m, fastRun(int64(10+i), 2, true)))
	}
	const workers, rounds = 4, 3
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (w + r) % len(models)
				tr, err := Collect(models[i], fastRun(int64(10+i), 2, true))
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
				Recycle(tr)
			}
		}(w)
	}
	wg.Wait()
}

// TestArenaSampleBufferTracksHighWater collects large, small, large without
// recycling: the third collection's fresh sampler buffer must be sized to
// the first's count, not the second's, so it never regrows.
func TestArenaSampleBufferTracksHighWater(t *testing.T) {
	resetLists()
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
	if h := sampleHigh.Load(); h != int64(len(large.Samples)) {
		t.Errorf("high-water mark %d, want the largest count %d", h, len(large.Samples))
	}
	if cap(again.Samples) != len(again.Samples) {
		t.Errorf("third collection's buffer grew to capacity %d for %d samples: it was not sized to the high-water mark",
			cap(again.Samples), len(again.Samples))
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

// TestDecodeIntoRecycledBuffers decodes trace A, poisons and recycles its
// buffers, then decodes a different trace B into them: B must land in A's
// sample and event buffers and equal a fresh decode of B field by field, so
// nothing of A leaks into an upload decoded after it. A decode that fails
// gives its buffers back too.
func TestDecodeIntoRecycledBuffers(t *testing.T) {
	big := freshCollect(t, zoo.TinyVGG(), fastRun(21, 4, true))
	small := freshCollect(t, zoo.TinyCNN(), fastRun(22, 2, true))
	if len(big.Samples) < len(small.Samples) || len(big.Timeline.Events()) < len(small.Timeline.Events()) {
		t.Fatalf("A (%d samples, %d events) must be at least B's size (%d, %d)", len(big.Samples),
			len(big.Timeline.Events()), len(small.Samples), len(small.Timeline.Events()))
	}
	decode := func(body []byte) *Trace {
		t.Helper()
		tr, err := ReadTrace(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	t.Run("v2", func(t *testing.T) {
		bodyA, bodyB := wireBytes(t, big), wireBytes(t, small)
		resetLists()
		want := decode(bodyB)
		a := decode(bodyA)
		samples := a.Samples[:cap(a.Samples)]
		for i := range samples {
			samples[i].Start, samples[i].End = -7, -3
			for e := range samples[i].Values {
				samples[i].Values[e] = math.NaN()
			}
		}
		events := a.Timeline.Events()
		events = events[:cap(events)]
		bogus := &dnn.Op{Kind: dnn.OpKind(250), Seq: -1}
		for i := range events {
			events[i].Op, events[i].Name, events[i].Iteration = bogus, "stale", 99
		}
		Recycle(a)

		got := decode(bodyB)
		if &got.Samples[0] != &samples[0] || &got.Timeline.Events()[0] != &events[0] {
			t.Fatal("B was not decoded into A's recycled buffers")
		}
		if err := tracesEqual(got, want); err != nil {
			t.Fatalf("a decode into recycled buffers differs from a fresh one: %v", err)
		}

		Recycle(got)
		resetLists()
		if _, err := ReadTrace(bytes.NewReader(bodyA[:len(bodyA)-1])); err == nil {
			t.Fatal("truncated upload decoded")
		}
		if back := spares.Get(); cap(back.samples) == 0 || cap(back.events) == 0 {
			t.Fatalf("a failed decode gave back buffers of capacity %d/%d, want its presized pair",
				cap(back.samples), cap(back.events))
		}
		if extra := spares.Get(); extra.samples != nil || extra.events != nil {
			t.Fatal("a failed decode gave back more than one spare pair")
		}
	})
}
