package main

import (
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"
)

// percentile returns the q-quantile (0 <= q <= 1) of xs, interpolating
// linearly between the two nearest order statistics (Hyndman–Fan type
// 7, the default of R and NumPy). It is exact: every sample is kept,
// so a quantile can move by any amount, not in histogram-bucket steps.
// xs is not modified; an empty xs gives NaN.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := q * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// ms converts durations to milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// ratio is num/den, or 0 when nothing was attempted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// metricName is the grammar every reported metric name must follow.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func validMetricName(name string) bool { return metricName.MatchString(name) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics is one run's named measurements.
type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// validate checks that m holds exactly the names in want, each well
// formed and a number, so a broken measurement fails the run instead of
// printing a bogus result.
func (m metrics) validate(want []string) error {
	if len(m) != len(want) {
		return fmt.Errorf("%d metrics, want %d", len(m), len(want))
	}
	for _, name := range want {
		if _, ok := m[name]; !ok {
			return fmt.Errorf("metric %s missing", name)
		}
	}
	for name, v := range m {
		if !validMetricName(name) {
			return fmt.Errorf("metric name %q does not match %s", name, metricName)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, v.Value)
		}
	}
	return nil
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func (r result) encode() string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // metrics are validated first; nothing else can fail to encode
	}
	return string(b)
}
