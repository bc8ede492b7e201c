package main

import (
	"strings"
	"testing"
)

func TestPercentileReportsSamplesAndRefusesThinTails(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	q, err := percentile(xs, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if q.Value != 50 || q.Samples != 100 || q.Beyond != 50 {
		t.Fatalf("p50 = %+v, want value 50 of 100 samples with 50 beyond", q)
	}
	q, err = percentile(xs, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if q.Value != 90 || q.Beyond != 10 {
		t.Fatalf("p90 = %+v, want value 90 with 10 beyond", q)
	}
	if _, err := percentile(xs, 0.95); err == nil || !strings.Contains(err.Error(), "only 5 beyond") {
		t.Fatalf("p95 of 100 samples: err = %v, want a refusal naming the 5 samples beyond", err)
	}
	if _, err := percentile(xs[:19], 0.5); err == nil {
		t.Fatal("p50 of 19 samples leaves 9 beyond and must be refused")
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("percentile of no samples must be refused")
	}
	if _, err := percentile(xs, 1); err == nil {
		t.Fatal("q = 1 is outside (0, 1)")
	}
}

func TestUnionLen(t *testing.T) {
	for _, tc := range []struct {
		name   string
		ivs    []interval
		lo, hi int64
		want   int64
	}{
		{"disjoint", []interval{{10, 20}, {30, 35}, {0, 5}}, 0, 100, 20},
		{"overlapping", []interval{{10, 20}, {15, 30}, {25, 40}}, 0, 100, 30},
		{"nested", []interval{{10, 50}, {20, 30}, {22, 25}}, 0, 100, 40},
		{"touching", []interval{{10, 20}, {20, 30}}, 0, 100, 20},
		{"clipped to the parent", []interval{{-5, 5}, {95, 120}}, 0, 100, 10},
		{"outside the parent", []interval{{-10, -1}, {100, 110}}, 0, 100, 0},
		{"empty", nil, 0, 100, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := unionLen(tc.ivs, tc.lo, tc.hi); got != tc.want {
				t.Fatalf("unionLen = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestSelfTimeAccountsForTheWholeSpan(t *testing.T) {
	parent := interval{100, 200}
	children := []interval{{110, 150}, {120, 130}, {140, 160}, {190, 230}}
	self, covered := selfTime(parent, children)
	if covered != 60 || self != 40 {
		t.Fatalf("self %d + covered %d, want 40 + 60", self, covered)
	}
	if self+covered != parent.End-parent.Start {
		t.Fatal("self time plus child coverage must equal the span")
	}
}

func TestCheckMetric(t *testing.T) {
	for _, name := range []string{"setup_s", "alg.step_ns_per_call", "go.gc_cycles_per_kround", "9lives", "a-b"} {
		if err := checkMetric(name, "us"); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	for _, name := range []string{"", "_lead", ".lead", "has space", "slash/name", "per%cent", strings.Repeat("x", 65)} {
		if err := checkMetric(name, "us"); err == nil {
			t.Errorf("%q accepted", name)
		}
	}
	for _, unit := range []string{"1/s", "%", "count", "MB"} {
		if err := checkMetric("x", unit); err != nil {
			t.Errorf("unit %q: %v", unit, err)
		}
	}
	for _, unit := range []string{"", "µs", "a b", strings.Repeat("u", 17)} {
		if err := checkMetric("x", unit); err == nil {
			t.Errorf("unit %q accepted", unit)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v, want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}
