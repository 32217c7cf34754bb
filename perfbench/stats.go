package main

import (
	"fmt"
	"math"
	"sort"
)

// This file holds the benchmark's own arithmetic: span self time, CPU
// window alignment, failure accounting and percentile reporting. It is
// pure (no clocks, no processes) so stats_test.go can check it on
// synthetic inputs.

// layer names one timed layer of the replay.
type layer int

const (
	layerCore layer = iota
	layerStore
	layerDurable
	layerBatcher
	layerEncode
	layerDecode
	numLayers
)

var layerNames = [numLayers]string{"core", "store", "durable", "batcher", "encode", "decode"}

func (l layer) String() string { return layerNames[l] }

// selfClock attributes elapsed time to the innermost open span: entering
// or leaving a span first charges the time since the last event to the
// span on top of the stack. A layer's self time is thus its spans'
// durations minus the part their child spans cover, and — on a clock
// that never runs backwards — can never be negative. Time with no span
// open (the replay driver's own bookkeeping) is charged to nobody.
type selfClock struct {
	now   func() int64 // nanoseconds, monotonic
	stack []layer
	last  int64
	self  [numLayers]int64
}

func newSelfClock(now func() int64) *selfClock { return &selfClock{now: now} }

func (c *selfClock) enter(l layer) {
	c.charge(c.now())
	c.stack = append(c.stack, l)
}

func (c *selfClock) exit() {
	c.charge(c.now())
	c.stack = c.stack[:len(c.stack)-1]
}

func (c *selfClock) charge(t int64) {
	if n := len(c.stack); n > 0 && t > c.last {
		c.self[c.stack[n-1]] += t - c.last
	}
	c.last = t
}

// sample is one reading of a cumulative quantity (process CPU time, a
// counter) at a point of the run's clock, both in nanoseconds.
type sample struct {
	At    int64 `json:"at_ns"`
	Value int64 `json:"value"`
}

// valueAt linearly interpolates a cumulative series at t. The series
// must be sorted by At and bracket t.
func valueAt(series []sample, t int64) (float64, error) {
	i := sort.Search(len(series), func(i int) bool { return series[i].At >= t })
	switch {
	case i == len(series) || (i == 0 && series[0].At != t):
		return 0, fmt.Errorf("no samples bracket t=%dns", t)
	case series[i].At == t:
		return float64(series[i].Value), nil
	}
	a, b := series[i-1], series[i]
	frac := float64(t-a.At) / float64(b.At-a.At)
	return float64(a.Value) + frac*float64(b.Value-a.Value), nil
}

// windowDelta is the growth of a cumulative series over [from, to]:
// the CPU a process spent inside the measurement window, read from
// samples taken around the window edges rather than at them.
func windowDelta(series []sample, from, to int64) (float64, error) {
	if to < from {
		return 0, fmt.Errorf("window ends before it starts (%d < %d)", to, from)
	}
	a, err := valueAt(series, from)
	if err != nil {
		return 0, fmt.Errorf("window start: %w", err)
	}
	b, err := valueAt(series, to)
	if err != nil {
		return 0, fmt.Errorf("window end: %w", err)
	}
	return b - a, nil
}

// tally counts one run's operations for fail_frac. A run that errored
// counts every operation it attempted as failed, and at least one.
func tally(issued, shed uint64, errored bool) (attempted, failed uint64) {
	attempted = issued + shed
	if errored {
		if attempted == 0 {
			attempted = 1
		}
		return attempted, attempted
	}
	return attempted, shed
}

// failFrac is failed / attempted (0 for nothing attempted).
func failFrac(attempted, failed uint64) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// percentileSupported reports whether a percentile p of count samples
// has at least ten samples beyond it — the highest percentile a run
// may report.
func percentileSupported(p float64, count uint64) bool {
	return float64(count)*(1-p/100) >= 10
}

// median of xs (the mean of the middle two for an even count); NaN for
// none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianReadings combines the same metrics from several runs: each
// value is the runs' median and its sample count their sum. A metric
// missing from any run is left out.
func medianReadings(runs []map[string]reading) map[string]reading {
	out := map[string]reading{}
	if len(runs) == 0 {
		return out
	}
	for name, first := range runs[0] {
		vals := make([]float64, 0, len(runs))
		var samples uint64
		for _, r := range runs {
			v, ok := r[name]
			if !ok {
				break
			}
			vals = append(vals, v.Value)
			samples += v.Samples
		}
		if len(vals) == len(runs) {
			out[name] = reading{median(vals), first.Unit, samples}
		}
	}
	return out
}

// reading is one reported metric: its value, unit and the number of
// samples it summarizes (0 when it is not a sample statistic).
type reading struct {
	Value   float64
	Unit    string
	Samples uint64
}

// String renders a reading for the human-readable table; percentiles
// carry their sample count.
func (r reading) String() string {
	s := fmt.Sprintf("%.6g %s", r.Value, r.Unit)
	if r.Samples > 0 {
		s += fmt.Sprintf("  (n=%d)", r.Samples)
	}
	return s
}
