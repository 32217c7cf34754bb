package flexcast

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"flexcast/amcast"
	"flexcast/internal/deploy"
	"flexcast/internal/durable"
	"flexcast/internal/runtime"
	"flexcast/internal/transport"
)

// ProtocolKind selects which multicast protocol a Cluster runs.
type ProtocolKind int

const (
	// ProtocolFlexCast runs the paper's protocol on a C-DAG overlay.
	ProtocolFlexCast ProtocolKind = iota + 1
	// ProtocolSkeen runs the distributed genuine baseline.
	ProtocolSkeen
	// ProtocolHierarchical runs the tree-overlay baseline.
	ProtocolHierarchical
)

// String names the protocol as internal/deploy does.
func (p ProtocolKind) String() string {
	if p >= ProtocolFlexCast && p <= ProtocolHierarchical {
		return [...]string{deploy.FlexCast, deploy.Skeen, deploy.Hierarchical}[p-ProtocolFlexCast]
	}
	return fmt.Sprintf("ProtocolKind(%d)", int(p))
}

// ClusterConfig configures an in-process cluster.
type ClusterConfig struct {
	// Protocol selects the multicast protocol (default ProtocolFlexCast).
	Protocol ProtocolKind
	// Overlay is required for ProtocolFlexCast; its order defines the
	// group set for every protocol unless Tree is set.
	Overlay *Overlay
	// Tree is required for ProtocolHierarchical.
	Tree *Tree
	// OnDeliver observes every delivery at every group. Calls are
	// serialized per group but concurrent across groups; the callback
	// must be safe for concurrent use.
	OnDeliver func(d Delivery)
	// CallTimeout bounds Call (default 10s).
	CallTimeout time.Duration
	// MaxBatch caps the runtime's envelope batches (internal/runtime):
	// inbound coalescing and per-destination output batching. 0 takes
	// the runtime default (64); 1 disables batching. Batching never
	// delays an idle cluster — batches form only when queues have depth.
	MaxBatch int
	// FlushInterval bounds the latency a partially filled batch may add
	// under sustained load (0 takes the runtime default, 500µs).
	FlushInterval time.Duration
	// WrapEngine, when non-nil, wraps each group's protocol engine
	// before it is attached to the runtime — the hook execution layers
	// (StoreCluster) use to run a state machine over deliveries without
	// the cluster knowing about application state.
	WrapEngine func(g GroupID, eng Engine) (Engine, error)
	// Durable, when non-nil, selects the durable persistence backend:
	// each group's (wrapped) engine runs behind a write-ahead log plus
	// periodic snapshot files (internal/durable) rooted under
	// Durable.Dir, and a restarted cluster pointed at the same directory
	// recovers each group's state before serving. nil keeps the default
	// in-memory backend, byte-for-byte unchanged.
	Durable *DurableConfig
}

// DurableConfig configures the durable persistence backend
// (ClusterConfig.Durable / StoreClusterConfig.Durable).
type DurableConfig struct {
	// Dir is the persistence root; each group persists into
	// Dir/group-<id>. Required.
	Dir string
	// SnapshotEvery snapshots and rotates each group's WAL every N input
	// envelopes (default 256; <0 disables snapshots — the WAL then grows
	// unbounded and recovery replays it all).
	SnapshotEvery int
	// FsyncEvery fsyncs each WAL every N appends (default 64; 1 fsyncs
	// every append, <0 never fsyncs — kill -9 durability only).
	FsyncEvery int
	// KeepEpochs retains superseded WAL/snapshot files instead of
	// deleting them.
	KeepEpochs bool
	// Decode rebuilds one group's engine snapshot from its binary form.
	// nil takes the cluster's protocol decoder; layers that wrap engines
	// (StoreCluster) install their composed decoder automatically.
	Decode func(g GroupID, data []byte) (amcast.Snapshot, error)
}

// DurableRecovery reports how one group's durable engine recovered at
// cluster start (zero-valued when the directory was empty).
type DurableRecovery struct {
	// Group identifies the recovered group.
	Group GroupID
	// Recovered is true when prior state (snapshot or WAL) was found.
	Recovered bool
	// SnapshotEpoch is the restored snapshot's epoch (0: none).
	SnapshotEpoch uint64
	// ReplayedRecords counts the WAL records replayed on top.
	ReplayedRecords int
	// ReplayedEnvelopes counts the envelopes inside those records — the
	// recovery bound: with snapshots on, it is bounded by the snapshot
	// cadence, not the run length.
	ReplayedEnvelopes int
	// TornTailBytes is the length of the discarded torn WAL tail.
	TornTailBytes int64
	// Elapsed is the wall-clock recovery time (restore + replay).
	Elapsed time.Duration
}

// Cluster is an in-process deployment of one multicast protocol: one
// batched runtime node per group over the in-memory transport
// (internal/runtime), plus a built-in client for Multicast/Call. It is
// the easiest way to embed atomic multicast in an application or test.
type Cluster struct {
	cfg   ClusterConfig
	proto *deploy.Protocol
	net   *transport.InMemNet
	dep   *deploy.Deployment
	// clientSeq persists the built-in client's sequence reservation on
	// durable clusters: message ids must stay unique across cluster
	// incarnations, or a reopened cluster would reissue ids its recovered
	// engines already delivered — and the engines would deduplicate the
	// new requests instead of ordering them. nil on in-memory clusters.
	clientSeq *durable.SeqFile

	mu      sync.Mutex
	seq     uint64
	waiters map[MsgID]*callWaiter
	// observed is the delivered prefix this client has witnessed per
	// group — the consistency barrier of the local-read fast path
	// (StoreCluster): a read at barrier observed[g] sees every delivery
	// whose reply the client has already received. Guarded by mu.
	observed amcast.PrefixTracker
	closed   bool
}

type callWaiter struct {
	remaining map[GroupID]bool
	// results collects each destination group's execution result code
	// from its reply (amcast.ResultNone for pure-multicast clusters).
	results map[GroupID]uint8
	// observed folds this call's replies alone — the per-call barrier
	// delta a Session merges into its own vector (the cluster-wide
	// tracker c.observed is too coarse for sessions: it advances with
	// every caller's traffic, not just this session's observations).
	observed amcast.PrefixTracker
	done     chan struct{}
}

// NewCluster builds and starts a cluster.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return newCluster(cfg, nil, nil) }

// newCluster is NewCluster over an explicit group set (nil: the
// overlay's or tree's) with an optional store execution layer — the
// StoreCluster path.
func newCluster(cfg ClusterConfig, groups []GroupID, exec *deploy.Execute) (*Cluster, error) {
	if cfg.Protocol == 0 {
		cfg.Protocol = ProtocolFlexCast
	}
	if cfg.CallTimeout == 0 {
		cfg.CallTimeout = 10 * time.Second
	}
	proto, err := deploy.Resolve(cfg.Protocol.String(), groups, cfg.Overlay, cfg.Tree)
	if err != nil {
		return nil, fmt.Errorf("flexcast: %w", err)
	}
	c := &Cluster{
		cfg:      cfg,
		proto:    proto,
		net:      transport.NewInMemNet(),
		waiters:  make(map[MsgID]*callWaiter),
		observed: make(amcast.PrefixTracker),
	}
	stack := &deploy.Stack{Proto: proto, Wrap: cfg.WrapEngine, Execute: exec}
	if d := cfg.Durable; d != nil {
		if err := os.MkdirAll(d.Dir, 0o755); err != nil {
			return nil, err
		}
		sf, err := durable.OpenSeqFile(filepath.Join(d.Dir, "client.seq"), 0)
		if err != nil {
			return nil, err
		}
		c.clientSeq = sf
		stack.Durable = &deploy.Durable{
			Dir:           d.Dir,
			SnapshotEvery: d.SnapshotEvery,
			FsyncEvery:    d.FsyncEvery,
			KeepEpochs:    d.KeepEpochs,
			Decode:        d.Decode,
		}
	}
	send := func(from NodeID) runtime.SendBatchFunc {
		return func(to NodeID, envs []Envelope) { c.net.SendBatch(from, to, envs) }
	}
	rc := runtime.Config{MaxBatch: cfg.MaxBatch, FlushInterval: cfg.FlushInterval, OnDeliver: cfg.OnDeliver}
	c.dep, err = deploy.Start(stack, nil, deploy.InMem(c.net, send), func(*deploy.Group) runtime.Config { return rc })
	if err != nil {
		c.net.Close()
		return nil, err
	}
	if err := c.net.AddHandler(amcast.ClientNode(0), c.onClientEnvelope); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// DurableRecoveries reports, per group, how the durable backend
// recovered at cluster start. Empty on in-memory clusters.
func (c *Cluster) DurableRecoveries() []DurableRecovery {
	var out []DurableRecovery
	for _, grp := range c.dep.Groups {
		if grp.Durable == nil {
			continue
		}
		st := grp.Durable.Recovery()
		out = append(out, DurableRecovery{
			Group:             grp.ID,
			Recovered:         st.Recovered,
			SnapshotEpoch:     st.SnapshotEpoch,
			ReplayedRecords:   st.ReplayedRecords,
			ReplayedEnvelopes: st.ReplayedEnvelopes,
			TornTailBytes:     st.TornTailBytes,
			Elapsed:           st.Elapsed,
		})
	}
	return out
}

// Groups returns the cluster's group set.
func (c *Cluster) Groups() []GroupID { return append([]GroupID(nil), c.proto.Groups...) }

// ObservedPrefix returns the delivered prefix the cluster's built-in
// client has observed at group g: one past the highest delivery
// sequence seen on a reply from g, raised further by any watermark a
// reply or read result piggybacked (amcast.PrefixTracker). It only
// grows, so it is a valid read-your-writes barrier for reads against g.
func (c *Cluster) ObservedPrefix(g GroupID) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.observed.Prefix(g)
}

// observeRead folds a read result's serving watermark into the
// cluster-wide barrier, making successive reads monotonic even across
// different serving replicas.
func (c *Cluster) observeRead(g GroupID, watermark uint64) {
	c.mu.Lock()
	c.observed.Fold(g, watermark)
	c.mu.Unlock()
}

// Multicast sends payload to the destination groups and returns the
// message id without waiting for delivery. Deliveries surface through
// ClusterConfig.OnDeliver.
func (c *Cluster) Multicast(dst []GroupID, payload []byte) (MsgID, error) {
	m, err := c.send(dst, payload, nil)
	if err != nil {
		return 0, err
	}
	return m.ID, nil
}

// Call multicasts payload and blocks until every destination group has
// delivered (i.e. replied), or the timeout elapses.
func (c *Cluster) Call(dst []GroupID, payload []byte) (MsgID, error) {
	id, _, err := c.CallResults(dst, payload)
	return id, err
}

// CallResults is Call, additionally returning each destination group's
// execution result code from its reply (amcast.ResultCommitted /
// amcast.ResultAborted on executing clusters, amcast.ResultNone on
// pure-multicast ones).
func (c *Cluster) CallResults(dst []GroupID, payload []byte) (MsgID, map[GroupID]uint8, error) {
	id, results, _, err := c.callObserved(dst, payload)
	return id, results, err
}

// callObserved is CallResults, additionally returning the delivered
// prefixes this call's replies alone witnessed — the per-call barrier
// delta sessions (StoreCluster.Session) fold into their own vectors.
func (c *Cluster) callObserved(dst []GroupID, payload []byte) (MsgID, map[GroupID]uint8, amcast.PrefixTracker, error) {
	w := &callWaiter{
		remaining: make(map[GroupID]bool),
		results:   make(map[GroupID]uint8),
		observed:  make(amcast.PrefixTracker),
		done:      make(chan struct{}),
	}
	m, err := c.send(dst, payload, w)
	if err != nil {
		return 0, nil, nil, err
	}
	// A stopped timer is released at once; time.After's would stay live
	// for the whole CallTimeout under the module's pre-1.23 timer
	// semantics, one per call.
	timeout := time.NewTimer(c.cfg.CallTimeout)
	defer timeout.Stop()
	select {
	case <-w.done:
		c.mu.Lock()
		results, observed := w.results, w.observed
		c.mu.Unlock()
		return m.ID, results, observed, nil
	case <-timeout.C:
		c.mu.Lock()
		delete(c.waiters, m.ID)
		c.mu.Unlock()
		return m.ID, nil, nil, fmt.Errorf("flexcast: call %s timed out after %v", m.ID, c.cfg.CallTimeout)
	}
}

func (c *Cluster) send(dst []GroupID, payload []byte, w *callWaiter) (Message, error) {
	norm := amcast.NormalizeDst(append([]GroupID(nil), dst...))
	if len(norm) == 0 {
		return Message{}, fmt.Errorf("flexcast: empty destination set")
	}
	for _, g := range norm {
		if c.dep.Group(g) == nil {
			return Message{}, fmt.Errorf("flexcast: group %d not in cluster", g)
		}
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return Message{}, fmt.Errorf("flexcast: cluster closed")
	}
	if c.clientSeq != nil {
		seq, err := c.clientSeq.Next()
		if err != nil {
			c.mu.Unlock()
			return Message{}, fmt.Errorf("flexcast: reserving client sequence: %w", err)
		}
		c.seq = seq
	} else {
		c.seq++
	}
	m := Message{
		ID:      amcast.NewMsgID(0, c.seq),
		Sender:  amcast.ClientNode(0),
		Dst:     norm,
		Payload: append([]byte(nil), payload...),
	}
	if w != nil {
		for _, g := range norm {
			w.remaining[g] = true
		}
		c.waiters[m.ID] = w
	}
	c.mu.Unlock()

	for _, to := range c.proto.Route(m) {
		c.net.Send(m.Sender, to, Envelope{Kind: amcast.KindRequest, From: m.Sender, Msg: m})
	}
	return m, nil
}

func (c *Cluster) onClientEnvelope(env Envelope) {
	if env.Kind != amcast.KindReply {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.observed.Observe(env)
	w, ok := c.waiters[env.Msg.ID]
	if !ok {
		return
	}
	w.observed.Observe(env)
	if w.remaining[env.From.Group()] {
		w.results[env.From.Group()] = env.Result
	}
	delete(w.remaining, env.From.Group())
	if len(w.remaining) == 0 {
		delete(c.waiters, env.Msg.ID)
		close(w.done)
	}
}

// Close stops all group goroutines (follower read replicas included).
// Pending Calls fail by timeout.
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	c.net.Close()
	c.dep.Close()
}
