package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The expected quartiles are Python's statistics.quantiles(xs, n=4), the
// method the acceptance spread check uses.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.5, 1.25, 9, 4, 4, 7, 2.5}, 2.5, 4, 7},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if q1, q2, q3 := quartiles([]float64{7}); q1 != 7 || q2 != 7 || q3 != 7 {
		t.Errorf("quartiles of one sample = %v, %v, %v; want 7s", q1, q2, q3)
	}
}

func TestMedianAndSpread(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if s := spread(xs); !near(s, (8.25-2.75)/5.5) {
		t.Errorf("spread = %v", s)
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median reordered its input")
	}
}

func TestPercentileCountsSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, beyond := percentile(xs, 0.99)
	if v != 990 || beyond != 10 {
		t.Errorf("p99 of 1..1000 = %v with %d beyond; want 990 with 10", v, beyond)
	}
	v, beyond = percentile(xs, 0.5)
	if v != 500 || beyond != 500 {
		t.Errorf("p50 of 1..1000 = %v with %d beyond; want 500 with 500", v, beyond)
	}
}

// The tail is the highest percentile with at least ten samples beyond it.
func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	cases := []struct {
		n    int
		p, v float64
		ok   bool
	}{
		{19, 0, 0, false}, // the median of 19 has 9 beyond
		{20, 0.50, 10, true},
		{40, 0.75, 30, true},
		{72, 0.75, 54, true}, // p90 of 72 has only 7 beyond
		{100, 0.90, 90, true},
		{1000, 0.99, 990, true},
		{999, 0.95, 950, true}, // p99 of 999 has 9 beyond
		{10000, 0.999, 9990, true},
	}
	for _, c := range cases {
		p, v, ok := tail(seq(c.n))
		if ok != c.ok || p != c.p || v != c.v {
			t.Errorf("tail of %d samples = p%v %v %v; want p%v %v %v", c.n, p, v, ok, c.p, c.v, c.ok)
		}
	}
}

func TestFailedFrac(t *testing.T) {
	if f := failedFrac(863, 0); f != 0 {
		t.Errorf("clean run = %v", f)
	}
	if f := failedFrac(200, 5); f != 0.025 {
		t.Errorf("5 of 200 = %v", f)
	}
	if f := failedFrac(0, 0); f != 1 {
		t.Errorf("nothing attempted = %v; want 1, never clean", f)
	}
}

// Each check counts as attempted; only errors count as failed, and a
// digest that moves between repetitions is a failure too.
func TestRunnerCountsFailures(t *testing.T) {
	r := newRunner(1)
	r.check("ok", nil)
	r.check("bad", errTest("boom"))
	r.setDigest([]byte("a"))
	r.setDigest([]byte("a"))
	r.setDigest([]byte("b"))
	if r.attempted != 5 || r.failed != 2 {
		t.Fatalf("attempted %d failed %d; want 5 and 2", r.attempted, r.failed)
	}
	if len(r.failures) != 2 {
		t.Fatalf("failures = %v", r.failures)
	}
}

type errTest string

func (e errTest) Error() string { return string(e) }
