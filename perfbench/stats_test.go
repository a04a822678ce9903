package main

import (
	"math"
	"testing"
)

func TestPercentileIsExact(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {1, 5},
	}
	for _, c := range cases {
		if got := percentile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
	if got := percentile([]float64{7}, 0.9); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
}

// A 10% shift of every sample moves each quantile by exactly 10%: the
// quantiles of log buckets 19% wide could not show it.
func TestPercentileResolvesSmallShifts(t *testing.T) {
	var base, shifted []float64
	for i := 1; i <= 1000; i++ {
		base = append(base, float64(i))
		shifted = append(shifted, 1.1*float64(i))
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if r := percentile(shifted, q) / percentile(base, q); math.Abs(r-1.1) > 1e-9 {
			t.Errorf("q=%v: ratio %v, want 1.1", q, r)
		}
	}
}

func TestMetricNames(t *testing.T) {
	for _, name := range append(append([]string{}, endToEnd...), perLayer...) {
		if !validMetricName(name) {
			t.Errorf("reported name %q is not a valid metric name", name)
		}
	}
	for _, bad := range []string{"", "_lead", ".lead", "has space", "semi;colon", "p50 ms", "ü"} {
		if validMetricName(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestValidateMetrics(t *testing.T) {
	m := metrics{}
	m.set("a_ms", "ms", 1)
	m.set("b.c", "count", 0)
	if err := m.validate([]string{"a_ms", "b.c"}); err != nil {
		t.Fatal(err)
	}
	if err := m.validate([]string{"a_ms"}); err == nil {
		t.Error("an unlisted metric passed")
	}
	if err := m.validate([]string{"a_ms", "missing"}); err == nil {
		t.Error("a missing metric passed")
	}
	m.set("b.c", "count", math.NaN())
	if err := m.validate([]string{"a_ms", "b.c"}); err == nil {
		t.Error("NaN passed")
	}
	m = metrics{}
	m.set("bad name", "ms", 1)
	if err := m.validate([]string{"bad name"}); err == nil {
		t.Error("a malformed name passed")
	}
}
