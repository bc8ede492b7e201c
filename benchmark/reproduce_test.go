package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"
)

// TestTracedRunReproducesUntraced runs the first batch of every
// workload with and without tracing: per-trial observations,
// stepped-round counts and the live Report (wall-clock fields aside)
// must match exactly, the kernel path must be the one the workload
// exists to measure, and every root span's self time plus its
// children's coverage must account for its whole duration.
func TestTracedRunReproducesUntraced(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			if testing.Short() && w.engine == "pull" {
				t.Skip("n = 10^5 trials take seconds")
			}
			r, _, err := w.setup(3)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := r.batch(0, nil)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			traced, err := r.batch(0, tr)
			if err != nil {
				t.Fatal(err)
			}
			if len(plain.failures) > 0 || len(traced.failures) > 0 {
				t.Fatalf("contract failures: %v / %v", plain.failures, traced.failures)
			}
			if !bytes.Equal(plain.exact, traced.exact) {
				t.Fatalf("traced outputs differ from untraced:\n%s\n%s", plain.exact, traced.exact)
			}
			if plain.polls != traced.polls || plain.rounds != traced.rounds || !slices.Equal(plain.stab, traced.stab) {
				t.Fatalf("polls %d/%d, rounds %d/%d or stabilisation samples differ", plain.polls, traced.polls, plain.rounds, traced.rounds)
			}
			root, kernel := kindTrial, kindStepAll
			switch w.engine {
			case "live":
				root, kernel = kindRound, kindStep
			case "pull":
				kernel = kindPullStepAll
			}
			for k := spanKind(0); k < numKinds; k++ {
				if k == root {
					continue
				}
				if (k == kernel) != (tr.calls[k] > 0) && k != kindMessageRow {
					t.Errorf("%s spans: %d calls; the %s kernel path must be the only alg path", kindNames[k], tr.calls[k], kindNames[kernel])
				}
			}
			if tr.calls[root] == 0 {
				t.Fatalf("no %s spans", kindNames[root])
			}
			if tr.self[root]+tr.covered[root] != tr.ns[root] {
				t.Fatalf("%s: self %d + covered %d != span total %d", kindNames[root], tr.self[root], tr.covered[root], tr.ns[root])
			}
			if tr.covered[root] <= 0 || tr.self[root] <= 0 {
				t.Fatalf("%s: self %d, covered %d: both must be positive", kindNames[root], tr.self[root], tr.covered[root])
			}
		})
	}
}

// benchmarkFile is the subset of BENCHMARK.json the program must agree
// with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestMetricsMatchBenchmarkJSON checks that every workload emits
// exactly the metrics BENCHMARK.json declares, with the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !slices.Equal(names, ours) {
		t.Fatalf("BENCHMARK.json workloads %v, program %v", names, ours)
	}

	out := batchOut{rounds: 100, trials: 2, wall: time.Second, cpu: time.Second, mallocs: 10, bytes: 1000, workers: 1, busyNs: 1}
	out.lat = [][]float64{nil}
	for i := 0; i < 1000; i++ {
		out.lat[0] = append(out.lat[0], float64(i))
	}
	out.stab = []float64{1, 2}
	for _, w := range workloads {
		w.exactBatches = 1
		ph := phase{outs: []batchOut{out}, wall: time.Second}
		e2e, _, err := endToEnd(&w, ph, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		layer, _ := perLayer(&w, ph, ph, newTracer(), 1)
		for _, c := range []struct {
			what     string
			declared []struct {
				Name string `json:"name"`
				Unit string `json:"unit"`
			}
			got map[string]metric
		}{{"end_to_end", bf.EndToEnd, e2e}, {"per_layer", bf.PerLayer, layer}} {
			if len(c.declared) != len(c.got) {
				t.Errorf("%s %s: declared %d metrics, emitted %d", w.name, c.what, len(c.declared), len(c.got))
			}
			for _, d := range c.declared {
				m, ok := c.got[d.Name]
				if !ok {
					t.Errorf("%s %s: %s declared but not emitted", w.name, c.what, d.Name)
				} else if m.Unit != d.Unit {
					t.Errorf("%s %s: %s unit %q, declared %q", w.name, c.what, d.Name, m.Unit, d.Unit)
				}
				if err := checkMetric(d.Name, d.Unit); err != nil {
					t.Error(err)
				}
			}
		}
	}
}
