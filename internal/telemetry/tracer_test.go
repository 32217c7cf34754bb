package telemetry

import (
	"math"
	"sync"
	"testing"

	"flexcast/amcast"
)

// fakeClock is a hand-advanced tracer clock.
type fakeClock struct{ now uint64 }

func (c *fakeClock) fn() uint64 { return c.now }

func id(client int, seq uint64) amcast.MsgID { return amcast.NewMsgID(client, seq) }

// TestStageTimestampsMonotone drives one record through every stage with
// out-of-order duplicate stamps (first-wins entry stages, last-wins
// completion stages) and checks the effective timestamps are
// non-decreasing and the stage durations telescope exactly to the
// end-to-end latency.
func TestStageTimestampsMonotone(t *testing.T) {
	clk := &fakeClock{}
	tr := NewTracer(1, clk.fn)
	m := id(0, 1)

	clk.now = 100
	tr.Begin(m)
	clk.now = 250
	tr.Stamp(m, StageEnqueue)
	clk.now = 400
	tr.Stamp(m, StageEnqueue) // duplicate: first wins, must not move it
	clk.now = 410
	tr.Stamp(m, StageDequeue)
	clk.now = 500
	tr.Stamp(m, StageDeliver) // first group delivers
	clk.now = 450
	tr.Stamp(m, StageDeliver) // late cross-group duplicate: entry stage, first wins
	clk.now = 700
	tr.Stamp(m, StageExecute)
	clk.now = 900
	tr.Stamp(m, StageExecute) // last wins: moves to 900
	clk.now = 950
	tr.Stamp(m, StageFlush)
	clk.now = 1100
	tr.Finish(m)

	if got := tr.Finished(); got != 1 {
		t.Fatalf("finished = %d, want 1", got)
	}
	if got := tr.Active(); got != 0 {
		t.Fatalf("active = %d, want 0", got)
	}

	// Expected effective stamps: submit 100, enqueue 250, dequeue 410,
	// deliver 500, execute 900, flush 950, reply 1100. Each transition
	// histogram holds exactly one sample equal to the difference.
	want := map[Stage]uint64{
		StageEnqueue: 150, // 250-100
		StageDequeue: 160, // 410-250
		StageDeliver: 90,  // 500-410
		StageExecute: 400, // 900-500
		StageFlush:   50,  // 950-900
		StageReply:   150, // 1100-950
	}
	var sum uint64
	prev := uint64(0)
	for s := StageEnqueue; s <= StageReply; s++ {
		h := tr.StageHist(s)
		if h.Count() != 1 {
			t.Fatalf("stage %s: %d samples, want 1", s.Name(), h.Count())
		}
		d := h.Max()
		if d != want[s] {
			t.Errorf("stage %s duration = %d, want %d", s.Name(), d, want[s])
		}
		// Durations are non-negative by construction; reconstruct the
		// timestamps and check monotonicity.
		ts := prev + d
		if ts < prev {
			t.Errorf("stage %s timestamp went backwards", s.Name())
		}
		prev = ts
		sum += d
	}
	if e2e := tr.E2EHist().Max(); sum != e2e {
		t.Errorf("stage durations sum to %d, e2e is %d — must telescope exactly", sum, e2e)
	}
	if e2e := tr.E2EHist().Max(); e2e != 1000 {
		t.Errorf("e2e = %d, want 1000", e2e)
	}
}

// TestSkippedStagesFoldForward checks a deployment that never stamps
// some stages (non-execute runs): their time lands in the next stamped
// stage and the telescoping sum still equals the end-to-end latency.
func TestSkippedStagesFoldForward(t *testing.T) {
	clk := &fakeClock{}
	tr := NewTracer(1, clk.fn)
	m := id(0, 1)
	clk.now = 0
	tr.Begin(m)
	clk.now = 300
	tr.Stamp(m, StageDeliver)
	clk.now = 1000
	tr.Finish(m)

	if got := tr.StageHist(StageDeliver).Max(); got != 300 {
		t.Errorf("ordering duration = %d, want 300 (submit→deliver with enqueue/dequeue unset)", got)
	}
	if got := tr.StageHist(StageReply).Max(); got != 700 {
		t.Errorf("reply duration = %d, want 700", got)
	}
	if got := tr.StageHist(StageEnqueue).Count(); got != 0 {
		t.Errorf("unset stage recorded %d samples", got)
	}
	if got := tr.E2EHist().Max(); got != 1000 {
		t.Errorf("e2e = %d, want 1000", got)
	}
}

// TestSamplingRate checks the deterministic 1-in-N gate: N times fewer
// records, chosen purely by sequence number.
func TestSamplingRate(t *testing.T) {
	const n = 8
	clk := &fakeClock{}
	tr := NewTracer(n, clk.fn)
	const total = 1024
	for seq := uint64(1); seq <= total; seq++ {
		m := id(3, seq)
		tr.Begin(m)
		clk.now += 10
		tr.Finish(m)
	}
	if got, want := tr.Finished(), uint64(total/n); got != want {
		t.Fatalf("finished = %d, want %d (1 in %d of %d)", got, want, n, total)
	}
	// The sampled set is a pure function of the id: every component
	// agrees with no coordination.
	for seq := uint64(1); seq <= 64; seq++ {
		if got, want := tr.Sampled(id(7, seq)), seq%n == 0; got != want {
			t.Fatalf("Sampled(seq=%d) = %v, want %v", seq, got, want)
		}
	}
}

// TestStampWithoutBeginDrops checks that stamps for ids never begun
// (flush multicasts, remote reads, other clients' traffic) leave no
// record behind.
func TestStampWithoutBeginDrops(t *testing.T) {
	clk := &fakeClock{}
	tr := NewTracer(1, clk.fn)
	m := id(0, 8)
	tr.Stamp(m, StageDeliver)
	tr.Finish(m)
	if got := tr.Finished(); got != 0 {
		t.Fatalf("finished = %d for a never-begun id", got)
	}
	if got := tr.Active(); got != 0 {
		t.Fatalf("active = %d for a never-begun id", got)
	}
}

// TestNilTracer checks every method is a no-op on a nil tracer.
func TestNilTracer(t *testing.T) {
	var tr *Tracer
	if tr2 := NewTracer(0, nil); tr2 != nil {
		t.Fatalf("NewTracer(0) = %v, want nil", tr2)
	}
	m := id(0, 1)
	tr.Begin(m)
	tr.Stamp(m, StageDeliver)
	tr.Finish(m)
	tr.Drop(m)
	tr.Merge(nil)
	if tr.Sampled(m) || tr.Finished() != 0 || tr.Active() != 0 || tr.Report() != nil {
		t.Fatal("nil tracer must observe nothing")
	}
}

// TestMergeAndReport merges two tracers and checks the serialized
// stages report.
func TestMergeAndReport(t *testing.T) {
	clk := &fakeClock{}
	a := NewTracer(2, clk.fn)
	b := NewTracer(2, clk.fn)
	for seq := uint64(2); seq <= 8; seq += 2 {
		a.Begin(id(0, seq))
		clk.now += 100
		a.Stamp(id(0, seq), StageDeliver)
		clk.now += 50
		a.Finish(id(0, seq))
		b.Begin(id(1, seq))
		clk.now += 200
		b.Finish(id(1, seq))
	}
	a.Merge(b)
	rep := a.Report()
	if rep == nil {
		t.Fatal("nil report after merge")
	}
	if rep.Records != 8 {
		t.Fatalf("records = %d, want 8", rep.Records)
	}
	if rep.E2E.Count != 8 {
		t.Fatalf("e2e count = %d, want 8", rep.E2E.Count)
	}
	if len(rep.Stages) == 0 {
		t.Fatal("no stage summaries")
	}
	for _, sg := range rep.Stages {
		if sg.Stage == "" || sg.Count == 0 {
			t.Fatalf("malformed stage summary %+v", sg)
		}
	}
}

// TestReportConsistentUnderConcurrentFinish hammers Begin/Stamp/Finish
// from several goroutines while reports are taken: every report must
// telescope exactly — each stage and the end-to-end histogram hold one
// sample per record, and the count-weighted stage means sum to the
// records' end-to-end total — however the reads interleave with the
// folds.
func TestReportConsistentUnderConcurrentFinish(t *testing.T) {
	tr := NewTracer(1, nil)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := uint64(1); ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				m := id(w, seq)
				tr.Begin(m)
				for s := StageEnqueue; s < StageReply; s++ {
					tr.Stamp(m, s)
				}
				tr.Finish(m)
			}
		}()
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for checked := 0; checked < 500; {
		r := tr.Report()
		if r == nil {
			continue
		}
		checked++
		if r.E2E.Count != r.Records {
			t.Fatalf("report %d: e2e holds %d samples for %d records", checked, r.E2E.Count, r.Records)
		}
		var weighted float64
		for _, sg := range r.Stages {
			if sg.Count != r.Records {
				t.Fatalf("report %d: stage %s holds %d samples for %d records", checked, sg.Stage, sg.Count, r.Records)
			}
			weighted += float64(sg.Count) * sg.Mean
		}
		total := float64(r.Records) * r.E2E.Mean
		if diff := math.Abs(weighted - total); diff > total*1e-9 {
			t.Fatalf("report %d: stage durations sum to %.0fns but e2e totals %.0fns", checked, weighted, total)
		}
	}
}
