package main

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// fakeClock returns a clock that advances by the next step on each read.
func fakeClock(steps ...int64) func() int64 {
	var t int64
	i := 0
	return func() int64 {
		if i < len(steps) {
			t += steps[i]
			i++
		}
		return t
	}
}

func TestSelfClockOuterMinusInner(t *testing.T) {
	// durable [0,100) ⊃ store [10,90) ⊃ core [20,70).
	c := newSelfClock(fakeClock(0, 10, 10, 50, 20, 10))
	c.enter(layerDurable) // t=0
	c.enter(layerStore)   // t=10
	c.enter(layerCore)    // t=20
	c.exit()              // t=70
	c.exit()              // t=90
	c.exit()              // t=100
	want := map[layer]int64{layerCore: 50, layerStore: 80 - 50, layerDurable: 100 - 80}
	for l, w := range want {
		if c.self[l] != w {
			t.Errorf("%s self = %d, want %d", l, c.self[l], w)
		}
	}
}

func TestSelfClockNeverNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var now int64
	c := newSelfClock(func() int64 {
		// Mostly forward, sometimes a step back (an unreliable clock):
		// self time must still never go negative.
		now += rng.Int63n(100) - 5
		return now
	})
	depth := 0
	for i := 0; i < 10000; i++ {
		if depth == 0 || (depth < 4 && rng.Intn(2) == 0) {
			c.enter(layer(rng.Intn(int(numLayers))))
			depth++
		} else {
			c.exit()
			depth--
		}
		for l := layer(0); l < numLayers; l++ {
			if c.self[l] < 0 {
				t.Fatalf("step %d: %s self time %d < 0", i, l, c.self[l])
			}
		}
	}
}

func TestSelfClockChargesNothingOutsideSpans(t *testing.T) {
	c := newSelfClock(fakeClock(5, 10, 1000, 7))
	c.enter(layerBatcher) // 5
	c.exit()              // 15
	// 1000 ns of driver bookkeeping pass with no span open.
	c.enter(layerEncode) // 1015
	c.exit()             // 1022
	if c.self[layerBatcher] != 10 || c.self[layerEncode] != 7 {
		t.Fatalf("self = %v, want batcher 10, encode 7", c.self)
	}
}

func TestWindowDeltaAlignsToWindow(t *testing.T) {
	// CPU accrues at 2 ns/ns (two busy cores) inside [1000, 5000] and
	// at 0.5 ns/ns outside it; samples straddle the window edges
	// without touching them.
	cpuAt := func(t int64) int64 {
		switch {
		case t <= 1000:
			return t / 2
		case t <= 5000:
			return 500 + 2*(t-1000)
		default:
			return 500 + 8000 + (t-5000)/2
		}
	}
	var series []sample
	for _, at := range []int64{0, 900, 1000, 1100, 3000, 4990, 5000, 5010, 9000} {
		series = append(series, sample{At: at, Value: cpuAt(at)})
	}
	got, err := windowDelta(series, 1000, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if got != 8000 {
		t.Fatalf("window CPU = %v, want 8000", got)
	}
	// Between samples the delta interpolates linearly.
	got, err = windowDelta(series, 1050, 4995)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(cpuAt(4995)) - float64(cpuAt(1050))
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("window CPU = %v, want %v", got, want)
	}
	// A window the samples do not bracket is an error, not a guess.
	if _, err := windowDelta(series, 500, 9500); err == nil {
		t.Fatal("window end past the last sample accepted")
	}
	if _, err := windowDelta(series[1:], 100, 5000); err == nil {
		t.Fatal("window start before the first sample accepted")
	}
	if _, err := windowDelta(series, 5000, 1000); err == nil {
		t.Fatal("inverted window accepted")
	}
}

func TestFailFracCountsShedAndErroredRuns(t *testing.T) {
	// 1000 issued in the window, 50 shed by admission control.
	a, f := tally(1000, 50, false)
	if a != 1050 || f != 50 {
		t.Fatalf("tally = %d/%d, want 1050 attempted, 50 failed", a, f)
	}
	if got := failFrac(a, f); math.Abs(got-50.0/1050) > 1e-12 {
		t.Fatalf("fail_frac = %v", got)
	}
	// An errored run fails everything it attempted...
	a2, f2 := tally(400, 10, true)
	if a2 != 410 || f2 != 410 {
		t.Fatalf("errored tally = %d/%d, want 410/410", a2, f2)
	}
	// ...and at least one operation, even if it never issued any.
	a3, f3 := tally(0, 0, true)
	if a3 != 1 || f3 != 1 {
		t.Fatalf("errored empty tally = %d/%d, want 1/1", a3, f3)
	}
	if got := failFrac(a+a2+a3, f+f2+f3); math.Abs(got-461.0/1461) > 1e-12 {
		t.Fatalf("combined fail_frac = %v", got)
	}
	if failFrac(0, 0) != 0 {
		t.Fatal("fail_frac of nothing attempted is not 0")
	}
}

func TestPercentilesCarrySampleCounts(t *testing.T) {
	// A p99 needs ten samples beyond it: 1000 samples, not 999.
	if !percentileSupported(99, 1000) || percentileSupported(99, 999) {
		t.Fatal("p99 support threshold is not 1000 samples")
	}
	if !percentileSupported(50, 20) || percentileSupported(50, 19) {
		t.Fatal("p50 support threshold is not 20 samples")
	}
	// A reported percentile prints its sample count; a plain value does
	// not pretend to have one.
	if s := (reading{Value: 41471, Unit: "us", Samples: 304329}).String(); !strings.Contains(s, "n=304329") || !strings.Contains(s, "us") {
		t.Fatalf("percentile reading %q lacks its unit or sample count", s)
	}
	if s := (reading{Value: 2.5, Unit: "count"}).String(); strings.Contains(s, "n=") {
		t.Fatalf("plain reading %q claims a sample count", s)
	}
	// A failing live run is rejected when its window cannot support p99.
	if err := checkLive(liveResult{Completed: 500, LatencySamples: 500, CPUWindowNs: 1}); err == nil {
		t.Fatal("500-sample window accepted for a p99")
	}
	if err := checkLive(liveResult{Completed: 5000, LatencySamples: 5000, CPUWindowNs: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{7, 1, 3, 9, 5, 2, 8, 4, 6, 10}
	if m := median(xs); m != 5.5 {
		t.Fatalf("median = %v, want 5.5", m)
	}
	if m := median(xs[:5]); m != 5 {
		t.Fatalf("median of 5 = %v, want 5", m)
	}
	if xs[0] != 7 {
		t.Fatal("median reordered its input")
	}
}

func TestMedianReadingsOfRuns(t *testing.T) {
	// One stalled run of five lifts its own p99, not the median's.
	var runs []map[string]reading
	for _, p99 := range []float64{25855, 25599, 41471, 26111, 25855} {
		runs = append(runs, map[string]reading{
			"latency_p99_us":  {p99, "us", 12000},
			"throughput_tx_s": {3000, "tx/s", 0},
		})
	}
	got := medianReadings(runs)
	if r := got["latency_p99_us"]; r.Value != 25855 || r.Unit != "us" || r.Samples != 60000 {
		t.Fatalf("p99 over runs = %+v, want 25855 us with 60000 samples", r)
	}
	if r := got["throughput_tx_s"]; r.Value != 3000 || r.Samples != 0 {
		t.Fatalf("throughput over runs = %+v", r)
	}
	// A metric one run lacks is not reported from the others.
	delete(runs[2], "throughput_tx_s")
	if _, ok := medianReadings(runs)["throughput_tx_s"]; ok {
		t.Fatal("metric missing from one run was reported")
	}
	if len(medianReadings(nil)) != 0 {
		t.Fatal("no runs gave metrics")
	}
}
