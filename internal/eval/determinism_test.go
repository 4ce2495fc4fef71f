package eval

import (
	"context"
	"testing"
)

// The tentpole guarantee of the parallel pipeline: any worker count renders
// byte-identical tables. Two workbenches are built from scratch — one serial,
// one with four workers — and every stage (trace collection, training,
// inference) must agree exactly.
func TestParallelPipelineDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("trains two workbenches")
	}
	render := func(workers int) (string, string, string) {
		sc := Tiny()
		sc.Workers = workers
		w, err := NewWorkbench(sc)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		t6, err := w.Table6()
		if err != nil {
			t.Fatalf("workers=%d Table6: %v", workers, err)
		}
		t7, err := w.Table7()
		if err != nil {
			t.Fatalf("workers=%d Table7: %v", workers, err)
		}
		t9, err := w.Table9()
		if err != nil {
			t.Fatalf("workers=%d Table9: %v", workers, err)
		}
		return t6.Render(), t7.Render(), t9.Render()
	}

	s6, s7, s9 := render(1)
	p6, p7, p9 := render(4)
	for _, cmp := range []struct {
		table            string
		serial, parallel string
	}{
		{"Table VI", s6, p6},
		{"Table VII", s7, p7},
		{"Table IX", s9, p9},
	} {
		if cmp.serial != cmp.parallel {
			t.Errorf("%s differs between workers=1 and workers=4:\n--- serial ---\n%s\n--- parallel ---\n%s",
				cmp.table, cmp.serial, cmp.parallel)
		}
	}
}

// CollectTraces must yield identical traces for any worker count — the
// cheaper, more surgical determinism check that runs even in -short mode's
// absence without training.
func TestCollectTracesDeterministic(t *testing.T) {
	serial := Tiny()
	serial.Workers = 1
	parallel := Tiny()
	parallel.Workers = 8

	a, err := serial.CollectTraces(context.Background(), nil, serial.Tested, StreamTested)
	if err != nil {
		t.Fatal(err)
	}
	b, err := parallel.CollectTraces(context.Background(), nil, parallel.Tested, StreamTested)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("trace counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i].Samples) != len(b[i].Samples) {
			t.Fatalf("trace %d: %d vs %d samples", i, len(a[i].Samples), len(b[i].Samples))
		}
		for j := range a[i].Samples {
			if a[i].Samples[j] != b[i].Samples[j] {
				t.Fatalf("trace %d sample %d differs: %+v vs %+v", i, j, a[i].Samples[j], b[i].Samples[j])
			}
		}
		if a[i].VictimWall != b[i].VictimWall {
			t.Fatalf("trace %d victim wall differs: %v vs %v", i, a[i].VictimWall, b[i].VictimWall)
		}
	}
}
