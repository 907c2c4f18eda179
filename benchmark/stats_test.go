package main

import (
	"math"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = p%g, want p%g", c.n, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([…], n=4) on the same data.
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 3, 7, 1, 9}, 2, 9.5},
		{[]float64{2, 4}, 1.5, 4.5},
	} {
		q1, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; Python gives %g, %g", c.v, q1, q3, c.q1, c.q3)
		}
	}
}

func TestPercentile(t *testing.T) {
	v := []float64{10, 20, 30, 40, 50}
	if got := percentile(v, 50); got != 30 {
		t.Errorf("p50 = %g, want 30", got)
	}
	if got := percentile(v, 90); math.Abs(got-46) > 1e-12 {
		t.Errorf("p90 = %g, want 46", got)
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"same", steady, steady, "lower", "ok"},
		{"slower", steady, []float64{120, 121, 119, 120, 120}, "lower", "REGRESSION"},
		{"faster", steady, []float64{80, 81, 79, 80, 80}, "lower", "ok"},
		{"throughput fell", steady, []float64{80, 81, 79, 80, 80}, "higher", "REGRESSION"},
		{"noisy", steady, []float64{80, 130, 95, 120, 100}, "lower", "unresolved"},
		{"noisy but every run better", []float64{100, 140, 120, 160, 110}, []float64{50, 60, 55, 52, 58}, "lower", "ok"},
	} {
		if _, got := verdict(c.a, c.b, c.better, 0.10); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}
