package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// declared reads the metric names BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

// shortSeconds is each workload's run length in the tests. serve-mixed needs
// an open loop longer than repeatMinAge, or it draws no repeats.
var shortSeconds = map[string]int{"serve-mixed": 3, "workbench-build": 1, "fleet-collect": 1}

func shortRun(t *testing.T, workload string, trace bool) *result {
	t.Helper()
	o := options{
		workload:  workload,
		seed:      7,
		seconds:   shortSeconds[workload],
		trace:     trace,
		setupReps: 1,
		workDir:   t.TempDir(),
		spansDir:  t.TempDir(),
	}
	res, err := runAll(context.Background(), o, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("run not correct: attempted %d, failed %d", res.Attempted, res.Failed)
	}
	return res
}

func checkMetrics(t *testing.T, got map[string]metric, want []string) {
	t.Helper()
	var names []string
	for name, m := range got {
		names = append(names, name)
		if !metricName.MatchString(name) {
			t.Errorf("metric name %q does not match %s", name, metricName)
		}
		if m.Unit == "" {
			t.Errorf("metric %s has no unit", name)
		}
	}
	sort.Strings(names)
	if len(names) != len(want) {
		t.Fatalf("metrics %v, BENCHMARK.json declares %v", names, want)
	}
	for i := range names {
		if names[i] != want[i] {
			t.Fatalf("metrics %v, BENCHMARK.json declares %v", names, want)
		}
	}
}

// TestWorkloads runs each workload briefly, untraced and traced: every
// declared metric is emitted with a unit, and the two runs at one seed make
// identical decisions.
func TestWorkloads(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			plain := shortRun(t, name, false)
			checkMetrics(t, plain.Metrics, endToEnd)
			for _, k := range endToEnd {
				if plain.Metrics[k].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", k, plain.Metrics[k].Value)
				}
			}
			traced := shortRun(t, name, true)
			checkMetrics(t, traced.Metrics, perLayer)
			if plain.digest == "" || plain.digest != traced.digest {
				t.Errorf("two runs at one seed disagree on fingerprints or accuracy: %q vs %q", plain.digest, traced.digest)
			}
			// Each replay was checked against the offline fingerprint, so a
			// nonzero share shows the journal-replay path ran and passed.
			if name == "serve-mixed" && traced.Metrics["serve.replay_frac"].Value <= 0 {
				t.Errorf("no repeat came back replayed: serve.replay_frac = %v", traced.Metrics["serve.replay_frac"].Value)
			}
		})
	}
}

func TestQuantile(t *testing.T) {
	ds := []time.Duration{5, 1, 4, 2, 3}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.2, 1}, {0.5, 3}, {0.99, 5}} {
		if got := quantile(ds, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
}
