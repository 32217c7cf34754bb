package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	goruntime "runtime"
	"time"

	"flexcast/amcast"
	"flexcast/internal/codec"
	"flexcast/internal/core"
	"flexcast/internal/durable"
	"flexcast/internal/gtpcc"
	"flexcast/internal/overlay"
	"flexcast/internal/runtime"
	"flexcast/internal/store"
	"flexcast/internal/trace"
	"flexcast/internal/wan"
)

// The replay is a deterministic, single-goroutine run of a workload's
// seeded gTPC-C stream through the same layers the live deployment
// stacks, each wrapped in a timing decorator, so every layer's busy
// time is measured from outside through its public entry points:
//
//	core.Engine ⊂ store.Executor ⊂ durable.Engine   (BatchStep, TakeDeliveries)
//	runtime.Batcher                                 (Add, FlushAll)
//	codec.Marshal / codec.Unmarshal                 (every envelope sent)
//
// Nodes step in group order, one chunk of at most maxBatch inbound
// envelopes each, exactly like runtime.Node.process; links are FIFO.
// Sessions keep one transaction in flight each (closed loop), and a
// flush multicast to every group goes out each flushEvery committed
// transactions, like loadgen's flush client.

const maxBatch = 64

// replayResult is what one replay reports. Counts are exact and repeat
// for a given seed and flush period; times are not.
type replayResult struct {
	Err        string `json:"err,omitempty"`
	FlushEvery int    `json:"flush_every_tx"`
	Sessions   int    `json:"sessions"`
	// Committed counts completed client transactions; InEnvs the
	// envelopes stepped through the group engines; OutEnvs the engines'
	// protocol outputs (client replies excluded); Applied the client
	// deliveries the executors applied (a multi-group transaction once
	// per group); Sent the envelopes through batchers and the codec and
	// Bytes their encoded size.
	Committed uint64 `json:"committed"`
	InEnvs    uint64 `json:"in_envs"`
	OutEnvs   uint64 `json:"out_envs"`
	Applied   uint64 `json:"applied"`
	Sent      uint64 `json:"sent"`
	Bytes     uint64 `json:"bytes"`
	Flushes   uint64 `json:"flushes"`
	// Pruned is the engines' PrunedNodes total; HistoryMax the largest
	// HistoryLen any engine reached.
	Pruned     uint64 `json:"pruned"`
	HistoryMax int    `json:"history_max"`
	// SelfNs is each layer's self time; CoreAllocs the heap allocations
	// of the engines replaying their recorded input once more.
	SelfNs     map[string]int64 `json:"self_ns"`
	CoreAllocs uint64           `json:"core_allocs"`
	WallS      float64          `json:"wall_s"`
}

// timed is the timing decorator: it charges its inner engine's calls to
// one layer of the self clock.
type timed struct {
	inner amcast.SnapshotEngine
	clk   *selfClock
	l     layer
}

func (t *timed) Group() amcast.GroupID { return t.inner.Group() }

func (t *timed) OnEnvelope(env amcast.Envelope) []amcast.Output {
	t.clk.enter(t.l)
	defer t.clk.exit()
	return t.inner.OnEnvelope(env)
}

func (t *timed) BatchStep(envs []amcast.Envelope) []amcast.Output {
	t.clk.enter(t.l)
	defer t.clk.exit()
	return amcast.BatchStep(t.inner, envs)
}

func (t *timed) TakeDeliveries() []amcast.Delivery {
	t.clk.enter(t.l)
	defer t.clk.exit()
	return t.inner.TakeDeliveries()
}

func (t *timed) Snapshot() amcast.Snapshot       { return t.inner.Snapshot() }
func (t *timed) Restore(s amcast.Snapshot) error { return t.inner.Restore(s) }

type rnode struct {
	id      amcast.NodeID
	eng     amcast.Engine // outermost decorator
	core    *core.Engine
	exec    *store.Executor
	dur     *durable.Engine
	inbox   []amcast.Envelope
	batcher *runtime.Batcher
	// inputs records every chunk stepped, for the allocation pass.
	inputs [][]amcast.Envelope
}

type rsession struct {
	client int
	gen    *gtpcc.Gen
	seq    *uint64
	busy   bool
}

type rclient struct {
	id      amcast.NodeID
	batcher *runtime.Batcher
	inbox   []amcast.Envelope
}

type rtx struct {
	remaining int
	sess      *rsession // nil: the flush multicast
}

type replay struct {
	clk     *selfClock
	ov      *overlay.CDAG
	groups  []amcast.GroupID
	nodes   map[amcast.NodeID]*rnode
	order   []*rnode
	clients []*rclient
	sess    []*rsession
	flight  map[amcast.MsgID]*rtx
	rec     *trace.Recorder
	execute bool

	issued, target int
	sinceFlush     int
	flushEvery     int
	flushing       bool
	flushSeq       uint64
	bufs           [][]byte
	res            replayResult
	err            error
}

func (r *replay) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// newReplay builds the engines (each group's layer stack behind timing
// decorators), the client batchers and the sessions' generators — the
// same generators, seeds and home groups loadgen's clients use.
func newReplay(w *workload, seed int64, flushEvery int, tmp string) (*replay, error) {
	cfg := w.cfg(seed)
	if err := cfg.Fill(); err != nil { // loadgen's defaults: locality 0.95
		return nil, err
	}
	base := time.Now()
	r := &replay{
		clk:        newSelfClock(func() int64 { return int64(time.Since(base)) }),
		ov:         wan.O1(),
		groups:     wan.Groups(),
		nodes:      make(map[amcast.NodeID]*rnode),
		flight:     make(map[amcast.MsgID]*rtx),
		rec:        trace.NewRecorder(),
		execute:    cfg.Execute,
		target:     w.replayTx,
		flushEvery: flushEvery,
	}
	decode := func(data []byte) (amcast.Snapshot, error) {
		return store.UnmarshalSnapshot(data, core.UnmarshalSnapshot)
	}
	for _, g := range r.groups {
		ce, err := core.New(core.Config{Group: g, Overlay: r.ov})
		if err != nil {
			return nil, err
		}
		n := &rnode{id: amcast.GroupNode(g), core: ce}
		var eng amcast.SnapshotEngine = &timed{inner: ce, clk: r.clk, l: layerCore}
		if cfg.Execute {
			if n.exec, err = store.NewExecutor(eng, store.Config{Warehouse: g, Seed: cfg.Seed}, true); err != nil {
				return nil, err
			}
			eng = &timed{inner: n.exec, clk: r.clk, l: layerStore}
		}
		if cfg.Durable {
			n.dur, err = durable.Wrap(eng, durable.Options{
				Dir:    filepath.Join(tmp, "replay", fmt.Sprintf("group-%d", g)),
				Decode: decode,
			})
			if err != nil {
				return nil, err
			}
			eng = &timed{inner: n.dur, clk: r.clk, l: layerDurable}
		}
		n.eng = eng
		n.batcher = runtime.NewBatcher(r.send, maxBatch)
		r.nodes[n.id] = n
		r.order = append(r.order, n)
	}

	// Sessions: one generator per closed-loop worker, as loadgen's
	// newGen seeds them; the open loop has one generator per client
	// process, shared by every transaction that client keeps in flight.
	perClient := w.replaySessions / clients
	for c := 0; c < clients; c++ {
		r.clients = append(r.clients, &rclient{id: amcast.ClientNode(c), batcher: runtime.NewBatcher(r.send, maxBatch)})
		home := r.groups[c%len(r.groups)]
		newGen := func(worker int) (*gtpcc.Gen, error) {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(c)*7919 + int64(worker)*104729))
			return gtpcc.New(gtpcc.Config{
				Home: home, Nearest: wan.NearestOrder(home),
				Locality: cfg.Locality, GlobalOnly: cfg.GlobalOnly,
			}, rng)
		}
		if cfg.Rate > 0 {
			gen, err := newGen(0)
			if err != nil {
				return nil, err
			}
			seq := new(uint64)
			for i := 0; i < perClient; i++ {
				r.sess = append(r.sess, &rsession{client: c, gen: gen, seq: seq})
			}
			continue
		}
		for wk := 0; wk < perClient; wk++ {
			gen, err := newGen(wk)
			if err != nil {
				return nil, err
			}
			seq := uint64(wk) << 24
			r.sess = append(r.sess, &rsession{client: c, gen: gen, seq: &seq})
		}
	}
	r.res.Sessions = len(r.sess)
	r.res.FlushEvery = flushEvery
	return r, nil
}

// send is every batcher's transport: each envelope is encoded and
// decoded (timed), and the decoded copy is what the receiver consumes.
func (r *replay) send(to amcast.NodeID, envs []amcast.Envelope) {
	bufs := r.bufs[:0]
	dec := make([]amcast.Envelope, len(envs))
	r.clk.enter(layerEncode)
	for i := range envs {
		bufs = append(bufs, codec.Marshal(envs[i]))
	}
	r.clk.exit()
	r.clk.enter(layerDecode)
	for i, b := range bufs {
		var err error
		if dec[i], err = codec.Unmarshal(b); err != nil {
			r.fail(fmt.Errorf("codec round trip of %s to %s: %w", envs[i].Kind, to, err))
		}
	}
	r.clk.exit()
	for _, b := range bufs {
		r.res.Bytes += uint64(len(b))
	}
	r.bufs = bufs
	r.res.Sent += uint64(len(envs))
	if to.IsClient() {
		c := r.clients[to.ClientIndex()]
		c.inbox = append(c.inbox, dec...)
		return
	}
	n, ok := r.nodes[to]
	if !ok {
		r.fail(fmt.Errorf("envelope for unknown node %s", to))
		return
	}
	n.inbox = append(n.inbox, dec...)
}

func (r *replay) route(m amcast.Message) amcast.NodeID {
	return amcast.GroupNode(r.ov.Lca(m.Dst))
}

// multicast registers m in flight and queues its request at the
// client's batcher.
func (r *replay) multicast(c *rclient, m amcast.Message, s *rsession) {
	r.rec.OnMulticast(m)
	r.flight[m.ID] = &rtx{remaining: len(m.Dst), sess: s}
	r.clk.enter(layerBatcher)
	c.batcher.Add(r.route(m), amcast.Envelope{Kind: amcast.KindRequest, From: c.id, Msg: m})
	r.clk.exit()
}

// issue starts a transaction on every idle session (until the target
// count) and the flush multicast when due, then flushes the clients'
// batchers. It reports whether anything was issued.
func (r *replay) issue() bool {
	issued := false
	for _, s := range r.sess {
		if s.busy || r.issued >= r.target {
			continue
		}
		tx := s.gen.Next()
		*s.seq++
		c := r.clients[s.client]
		m := amcast.Message{ID: amcast.NewMsgID(s.client, *s.seq), Sender: c.id, Dst: tx.Dst}
		if r.execute {
			m.Payload = gtpcc.EncodeTx(tx)
		} else {
			m.Payload = make([]byte, tx.PayloadSize)
		}
		s.busy = true
		r.issued++
		r.multicast(c, m, s)
		issued = true
	}
	if !r.flushing && r.sinceFlush >= r.flushEvery && r.issued < r.target {
		r.flushSeq++
		c := r.clients[0]
		m := amcast.Message{
			ID:     amcast.NewMsgID(0, uint64(1)<<38+r.flushSeq),
			Sender: c.id,
			Dst:    append([]amcast.GroupID(nil), r.groups...),
			Flags:  amcast.FlagFlush,
		}
		r.flushing = true
		r.sinceFlush = 0
		r.multicast(c, m, nil)
		issued = true
	}
	if issued {
		for _, c := range r.clients {
			r.clk.enter(layerBatcher)
			c.batcher.FlushAll()
			r.clk.exit()
		}
	}
	return issued
}

// step processes one chunk at n, as runtime.Node.process does.
func (r *replay) step(n *rnode) {
	k := len(n.inbox)
	if k > maxBatch {
		k = maxBatch
	}
	chunk := append([]amcast.Envelope(nil), n.inbox[:k]...)
	n.inbox = n.inbox[:copy(n.inbox, n.inbox[k:])]
	n.inputs = append(n.inputs, chunk)

	outs := amcast.BatchStep(n.eng, chunk)
	dels := n.eng.TakeDeliveries()
	r.res.InEnvs += uint64(k)
	r.res.OutEnvs += uint64(len(outs))
	r.clk.enter(layerBatcher)
	for _, o := range outs {
		n.batcher.Add(o.To, o.Env)
	}
	for _, d := range dels {
		if d.Msg.Sender.IsClient() {
			n.batcher.Add(d.Msg.Sender, amcast.Envelope{
				Kind: amcast.KindReply, From: n.id, Msg: d.Msg.Header(),
				TS: d.Seq, Result: d.Result, Watermark: d.Watermark,
			})
		}
	}
	r.clk.exit()
	for _, d := range dels {
		if err := r.rec.OnDeliver(d); err != nil {
			r.fail(err)
		}
		if n.exec != nil && d.Msg.Flags&amcast.FlagFlush == 0 {
			r.res.Applied++
		}
	}
	r.clk.enter(layerBatcher)
	n.batcher.FlushAll()
	r.clk.exit()
	if h := n.core.HistoryLen(); h > r.res.HistoryMax {
		r.res.HistoryMax = h
	}
}

// receive folds the replies queued at the clients.
func (r *replay) receive() bool {
	got := false
	for _, c := range r.clients {
		for _, env := range c.inbox {
			got = true
			tx, ok := r.flight[env.Msg.ID]
			if env.Kind != amcast.KindReply || !ok {
				r.fail(fmt.Errorf("client %s got unexpected %s for %s", c.id, env.Kind, env.Msg.ID))
				continue
			}
			if tx.remaining--; tx.remaining > 0 {
				continue
			}
			delete(r.flight, env.Msg.ID)
			if tx.sess == nil {
				r.flushing = false
				r.res.Flushes++
				continue
			}
			tx.sess.busy = false
			r.res.Committed++
			r.sinceFlush++
		}
		c.inbox = c.inbox[:0]
	}
	return got
}

// run drives the deployment until the target count has committed and
// the system is quiescent.
func (r *replay) run() error {
	for r.err == nil {
		progress := r.issue()
		for _, n := range r.order {
			if len(n.inbox) > 0 {
				r.step(n)
				progress = true
			}
		}
		if r.receive() {
			progress = true
		}
		if !progress {
			if len(r.flight) > 0 {
				return fmt.Errorf("replay stalled with %d transactions in flight", len(r.flight))
			}
			break
		}
	}
	return r.err
}

// check verifies the replay's outputs: the delivery order (integrity,
// agreement, prefix and acyclic order, genuineness) and, with a store,
// every shard's mirror replica.
func (r *replay) check() error {
	if r.res.Committed != uint64(r.target) {
		return fmt.Errorf("replay committed %d of %d transactions", r.res.Committed, r.target)
	}
	if err := r.rec.CheckAll(true); err != nil {
		return fmt.Errorf("delivery order: %w", err)
	}
	for _, n := range r.order {
		if n.exec != nil {
			if err := n.exec.CheckMirror(); err != nil {
				return err
			}
		}
		if n.dur != nil {
			if err := n.dur.Err(); err != nil {
				return err
			}
		}
	}
	return nil
}

// countAllocs replays every group's recorded input through a fresh
// engine and counts the heap allocations of those calls alone.
func (r *replay) countAllocs() (uint64, error) {
	var total uint64
	for _, n := range r.order {
		eng, err := core.New(core.Config{Group: n.core.Group(), Overlay: r.ov})
		if err != nil {
			return 0, err
		}
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		for _, chunk := range n.inputs {
			eng.BatchStep(chunk)
			eng.TakeDeliveries()
		}
		goruntime.ReadMemStats(&after)
		total += after.Mallocs - before.Mallocs
		n.inputs = nil
	}
	return total, nil
}

func runReplay(w *workload, seed int64, flushEvery int, tmp string) replayResult {
	start := time.Now()
	r, err := newReplay(w, seed, flushEvery, tmp)
	if err != nil {
		return replayResult{Err: err.Error()}
	}
	if err := r.run(); err != nil {
		return replayResult{Err: err.Error()}
	}
	for _, n := range r.order {
		r.res.Pruned += uint64(n.core.PrunedNodes())
		if n.dur != nil {
			if err := n.dur.Close(); err != nil {
				r.fail(err)
			}
		}
	}
	r.res.SelfNs = make(map[string]int64, numLayers)
	for l := layer(0); l < numLayers; l++ {
		r.res.SelfNs[l.String()] = r.clk.self[l]
	}
	if err := r.check(); err != nil {
		r.fail(err)
	}
	if r.res.CoreAllocs, err = r.countAllocs(); err != nil {
		r.fail(err)
	}
	if r.err != nil {
		r.res.Err = r.err.Error()
	}
	r.res.WallS = time.Since(start).Seconds()
	return r.res
}
