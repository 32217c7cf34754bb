// Package telemetry is the observability plane of the wall-clock
// runtimes: sampled message-lifecycle tracing (per-stage latency
// decomposition of the write path), a process-wide registry of
// counters, gauges and latency histograms, and an opt-in HTTP endpoint
// serving both as JSON plus net/http/pprof (DESIGN.md §1g).
//
// The tracer answers the question the end-to-end histogram cannot:
// where a slow request spent its time. Each sampled request is stamped
// with a monotonic timestamp as it crosses each pipeline stage —
// submit → inbound queue → engine step → execute → batcher flush →
// reply — and on completion the telescoping differences land in one
// histogram per stage, so Σ stage means reconstructs the end-to-end
// mean exactly.
//
// Sampling is deterministic: a request is traced iff its message id's
// per-client sequence number is divisible by the sampling interval, so
// every component of a deployment agrees on the sampled set with no
// coordination and the unsampled hot path costs one branch and one
// modulo, no allocation, no lock.
package telemetry

import (
	"sync"
	"sync/atomic"
	"time"

	"flexcast/amcast"
	"flexcast/internal/metrics"
)

// Stage enumerates the lifecycle stages a traced request crosses, in
// pipeline order. The stamp policy per stage keeps multi-group requests
// monotone: entry stages (Submit..Deliver) keep the EARLIEST stamp
// across groups, completion stages (Execute..Reply) keep the LATEST —
// a prefix of minima followed by a suffix of maxima is always
// non-decreasing when each group's own stamps are ordered.
type Stage uint8

const (
	// StageSubmit is the client issuing the request (Begin).
	StageSubmit Stage = iota
	// StageEnqueue is the request entering a server's inbound queue
	// (first group to see the KindRequest envelope).
	StageEnqueue
	// StageDequeue is the worker popping the request into an engine
	// chunk.
	StageDequeue
	// StageDeliver is the engine emitting the delivery (first group).
	StageDeliver
	// StageExecute is the store having applied the delivery (last
	// group).
	StageExecute
	// StageFlush is the reply batch leaving the serving node's batcher
	// (last group).
	StageFlush
	// StageReply is the client completing the request (Finish).
	StageReply

	// NumStages is the number of lifecycle stages.
	NumStages = int(StageReply) + 1
)

// lastWins marks the completion stages (keep the latest stamp); the
// rest are entry stages (keep the earliest).
var lastWins = [NumStages]bool{
	StageExecute: true,
	StageFlush:   true,
	StageReply:   true,
}

// stageNames label the per-transition histograms by the LATER stage of
// each transition: stageNames[StageDequeue] is the enqueue→dequeue
// wait, and so on. stageNames[StageSubmit] labels nothing (Submit has
// no predecessor).
var stageNames = [NumStages]string{
	StageSubmit:  "submit",
	StageEnqueue: "ingress",    // submit → inbound queue (client batch + transport + backpressure)
	StageDequeue: "queue_wait", // inbound queue residency
	StageDeliver: "ordering",   // engine step: TS/NOTIF exchange until delivery
	StageExecute: "execute",    // delivery (first group) → store apply (last group)
	StageFlush:   "flush_wait", // apply → reply batch leaving the batcher
	StageReply:   "reply",      // flush → client completion (transport back)
}

// Name returns the label of the transition ENDING at stage s.
func (s Stage) Name() string { return stageNames[s] }

const traceShards = 16

type traceShard struct {
	mu sync.Mutex
	m  map[amcast.MsgID]*traceRecord
}

// traceRecord holds one sampled request's stage stamps. A stamp is the
// tracer clock plus one (so a stamp of 0 always means "unset", even
// under a clock that starts at zero).
type traceRecord struct {
	ts [NumStages]uint64
}

// Tracer samples and stamps request lifecycles. All methods are safe
// on a nil receiver (no-ops), so call sites need no configuration
// branches. Safe for concurrent use.
type Tracer struct {
	sample uint64
	clock  func() uint64

	shards [traceShards]traceShard

	// stage[s] is the duration histogram of the transition ending at
	// stage s (stage[StageSubmit] is unused); e2e is submit→reply.
	stage [NumStages]*metrics.Histogram
	e2e   *metrics.Histogram
	// fold makes Report a consistent snapshot: Finish folds a record
	// into the histograms under the read lock (Finishes still run in
	// parallel), Report and Merge take the write lock, so a report never
	// holds a record's stage samples without its end-to-end sample.
	fold sync.RWMutex

	finished atomic.Uint64
	active   atomic.Int64
}

// NewTracer builds a tracer sampling one request in sampleEvery
// (sampleEvery <= 0 disables tracing and returns nil — the nil-safe
// methods make a disabled tracer free). clock returns monotonic
// nanoseconds; nil takes a wall-clock monotonic default. Sim-time
// harnesses pass their own clock scaled to ns.
func NewTracer(sampleEvery int, clock func() uint64) *Tracer {
	if sampleEvery <= 0 {
		return nil
	}
	if clock == nil {
		base := time.Now()
		clock = func() uint64 { return uint64(time.Since(base)) }
	}
	t := &Tracer{sample: uint64(sampleEvery), clock: clock, e2e: metrics.NewHistogram()}
	for s := 1; s < NumStages; s++ {
		t.stage[s] = metrics.NewHistogram()
	}
	for i := range t.shards {
		t.shards[i].m = make(map[amcast.MsgID]*traceRecord)
	}
	return t
}

// SampleEvery reports the sampling interval (0 when disabled).
func (t *Tracer) SampleEvery() int {
	if t == nil {
		return 0
	}
	return int(t.sample)
}

// Sampled reports whether id belongs to the deterministic sample set.
// This is the hot-path gate: one nil check and one modulo.
func (t *Tracer) Sampled(id amcast.MsgID) bool {
	return t != nil && id.Seq()%t.sample == 0
}

func (t *Tracer) shard(id amcast.MsgID) *traceShard {
	return &t.shards[(uint64(id)*0x9E3779B97F4A7C15)>>59&(traceShards-1)]
}

// Begin creates the trace record for a sampled request and stamps
// StageSubmit. Only Begin creates records: later stamps for ids never
// begun (flush multicasts, reads, unsampled ids) are dropped, so
// records cannot leak.
func (t *Tracer) Begin(id amcast.MsgID) {
	if !t.Sampled(id) {
		return
	}
	now := t.clock() + 1
	sh := t.shard(id)
	sh.mu.Lock()
	if _, ok := sh.m[id]; !ok {
		rec := &traceRecord{}
		rec.ts[StageSubmit] = now
		sh.m[id] = rec
		t.active.Add(1)
	}
	sh.mu.Unlock()
}

// Stamp records stage s for a sampled, begun request; entry stages
// keep the earliest stamp, completion stages the latest. Unsampled ids
// return after one modulo; sampled ids without a record (never begun)
// after one map lookup.
func (t *Tracer) Stamp(id amcast.MsgID, s Stage) {
	if !t.Sampled(id) {
		return
	}
	now := t.clock() + 1
	sh := t.shard(id)
	sh.mu.Lock()
	if rec, ok := sh.m[id]; ok {
		if cur := rec.ts[s]; cur == 0 || (lastWins[s] && now > cur) {
			rec.ts[s] = now
		}
	}
	sh.mu.Unlock()
}

// Finish stamps StageReply, folds the record's telescoping stage
// durations into the per-stage histograms (skipping stages the
// deployment never stamps, whose time lands in the next stamped
// stage), records the end-to-end latency, and retires the record.
func (t *Tracer) Finish(id amcast.MsgID) {
	if !t.Sampled(id) {
		return
	}
	now := t.clock() + 1
	sh := t.shard(id)
	sh.mu.Lock()
	rec, ok := sh.m[id]
	if ok {
		delete(sh.m, id)
	}
	sh.mu.Unlock()
	if !ok {
		return
	}
	t.active.Add(-1)
	rec.ts[StageReply] = now
	t.fold.RLock()
	defer t.fold.RUnlock()
	prev := rec.ts[StageSubmit]
	for s := 1; s < NumStages; s++ {
		ts := rec.ts[s]
		if ts == 0 {
			continue
		}
		var d uint64
		if ts > prev {
			d = ts - prev
		}
		t.stage[s].Record(d)
		prev = ts
	}
	var e2e uint64
	if now > rec.ts[StageSubmit] {
		e2e = now - rec.ts[StageSubmit]
	}
	t.e2e.Record(e2e)
	t.finished.Add(1)
}

// Drop retires a begun record without recording anything (a request
// that failed or was abandoned).
func (t *Tracer) Drop(id amcast.MsgID) {
	if !t.Sampled(id) {
		return
	}
	sh := t.shard(id)
	sh.mu.Lock()
	_, ok := sh.m[id]
	if ok {
		delete(sh.m, id)
	}
	sh.mu.Unlock()
	if ok {
		t.active.Add(-1)
	}
}

// Finished reports the number of completed trace records.
func (t *Tracer) Finished() uint64 {
	if t == nil {
		return 0
	}
	return t.finished.Load()
}

// Active reports the number of begun, unfinished trace records.
func (t *Tracer) Active() int64 {
	if t == nil {
		return 0
	}
	return t.active.Load()
}

// StageHist returns the duration histogram of the transition ending at
// stage s (nil for StageSubmit or a nil tracer).
func (t *Tracer) StageHist(s Stage) *metrics.Histogram {
	if t == nil {
		return nil
	}
	return t.stage[s]
}

// E2EHist returns the traced end-to-end latency histogram.
func (t *Tracer) E2EHist() *metrics.Histogram {
	if t == nil {
		return nil
	}
	return t.e2e
}

// Merge folds other's histograms and counters into t (records in
// flight in other are not carried over). Used by harnesses that run
// many short deployments (chaos schedules) under one report.
func (t *Tracer) Merge(other *Tracer) {
	if t == nil || other == nil {
		return
	}
	t.fold.Lock()
	defer t.fold.Unlock()
	for s := 1; s < NumStages; s++ {
		t.stage[s].Merge(other.stage[s])
	}
	t.e2e.Merge(other.e2e)
	t.finished.Add(other.finished.Load())
}

// StageSummary is one transition's latency summary in the stages
// report.
type StageSummary struct {
	// Stage labels the transition by its later stage (see Stage.Name).
	Stage string `json:"stage"`
	metrics.NsSummary
}

// StagesReport is the serialized stage-latency decomposition: one
// summary per stamped transition, in pipeline order, plus the traced
// end-to-end distribution they telescope to.
type StagesReport struct {
	// SampleEvery is the sampling interval (1 in N).
	SampleEvery int `json:"sample_every"`
	// Records is the number of completed trace records.
	Records uint64 `json:"records"`
	// ActiveAtEnd counts begun records never finished (should be ~0 on
	// a drained run).
	ActiveAtEnd int64 `json:"active_at_end,omitempty"`
	// E2E is the traced submit→reply latency distribution.
	E2E metrics.NsSummary `json:"e2e_ns"`
	// Stages holds one summary per transition that recorded samples.
	Stages []StageSummary `json:"stages"`
}

// Report snapshots the tracer into its serialized form; nil when the
// tracer is disabled or recorded nothing.
func (t *Tracer) Report() *StagesReport {
	if t == nil {
		return nil
	}
	t.fold.Lock()
	defer t.fold.Unlock()
	if t.finished.Load() == 0 {
		return nil
	}
	r := &StagesReport{
		SampleEvery: int(t.sample),
		Records:     t.finished.Load(),
		ActiveAtEnd: t.active.Load(),
		E2E:         t.e2e.SummaryNs(),
	}
	for s := 1; s < NumStages; s++ {
		if t.stage[s].Count() == 0 {
			continue
		}
		r.Stages = append(r.Stages, StageSummary{
			Stage:     Stage(s).Name(),
			NsSummary: t.stage[s].SummaryNs(),
		})
	}
	return r
}
