// Package history implements FlexCast's history data structure (paper
// §4.1, Strategy a, and Algorithm 1): a DAG whose vertexes are messages
// (id + destination set) and whose edges record relative delivery order.
// Every group maintains one history; it grows by local deliveries and by
// merging the history diffs received from ancestor groups, and it shrinks
// through flush-based garbage collection (§4.3).
//
// Vertexes live in dense slots: a message id is translated to its slot
// through one map lookup where the id enters the history (AddNode,
// AddEdge, the start of a walk), and everything after that — adjacency,
// reachability walks, pruning — is slice indexing. Each slot carries its
// successor and predecessor slot lists, a generation that changes every
// time the slot is reallocated, and a visit stamp. Walks (AnyBeforeUntil,
// PruneBefore) mark visited slots with a fresh stamp instead of building
// a seen-set, and reuse one work list, so a dependency check allocates
// nothing. Pruned slots go to a free list and are reused.
//
// The structure also maintains an append-only log of first-seen nodes and
// edges. Per-descendant diff tracking (diff-hst in Algorithm 3) is a pair
// of indexes into this log, which makes computing "the part of my history
// I have not yet sent to h" O(new entries) instead of O(|history|). Log
// entries hold (slot, generation) references to the vertexes they name,
// so testing whether an entry is still live is two array reads; only a
// stale reference (the vertex was pruned, possibly re-added since) falls
// back to an id lookup, which keeps exactly the by-id semantics of the
// log.
package history

import (
	"fmt"
	"sort"

	"flexcast/amcast"
)

// Node is one history vertex: a message id and its destinations.
type Node struct {
	ID  amcast.MsgID
	Dst []amcast.GroupID
}

// ref names one allocation of a slot. It is live while the slot still
// holds that allocation; generations start at 1, so the zero ref is never
// live.
type ref struct {
	slot int32
	gen  uint32
}

type logEntry struct {
	// isEdge selects which of the two fields below is meaningful.
	isEdge bool
	node   Node
	edge   amcast.HistEdge
	// from is the node's ref (node entries) or the edge's source ref;
	// to is the edge's target ref. An edge entry whose two refs are live
	// names a live edge: edges disappear only with an endpoint.
	from, to ref
}

// slot is one vertex. A free slot has live == false and empty lists.
type slot struct {
	id   amcast.MsgID
	dst  []amcast.GroupID
	succ []int32
	pred []int32
	gen  uint32
	mark uint32
	live bool
}

// History is the history H = (M, D, lastDlvd) of one group. The zero value
// is not usable; call New.
type History struct {
	idx   map[amcast.MsgID]int32
	slots []slot
	free  []int32
	edges int
	last  amcast.MsgID // lastDlvd; 0 means ⊥
	// msgsTo counts live nodes addressed to each group, backing the
	// hst.containsMsgTo(d) test of Algorithm 3 (send-notifs).
	msgsTo map[amcast.GroupID]int
	// log records first-seen nodes and edges in insertion order; pruned
	// entries are left in place (they are dead weight for at most one diff
	// per descendant) so that diff cursors remain valid monotonic indexes.
	log []logEntry
	// stamp is the last visit stamp handed out; work is the reused work
	// list of walks and diffs.
	stamp uint32
	work  []int32
}

// New returns an empty history.
func New() *History {
	return &History{
		idx:    make(map[amcast.MsgID]int32),
		msgsTo: make(map[amcast.GroupID]int),
	}
}

// Len returns the number of live nodes.
func (h *History) Len() int { return len(h.idx) }

// EdgeCount returns the number of live edges.
func (h *History) EdgeCount() int { return h.edges }

// Contains reports whether the message id is a live node.
func (h *History) Contains(id amcast.MsgID) bool {
	_, ok := h.idx[id]
	return ok
}

// NodeOf returns the node for id, and whether it exists.
func (h *History) NodeOf(id amcast.MsgID) (Node, bool) {
	s, ok := h.idx[id]
	if !ok {
		return Node{}, false
	}
	return Node{ID: h.slots[s].id, Dst: h.slots[s].dst}, true
}

func (h *History) refOf(s int32) ref { return ref{slot: s, gen: h.slots[s].gen} }

func (h *History) isLive(r ref) bool {
	return r.gen != 0 && h.slots[r.slot].gen == r.gen && h.slots[r.slot].live
}

// LastDelivered returns the id of the last message delivered at this
// group, or 0 if none.
func (h *History) LastDelivered() amcast.MsgID { return h.last }

// ContainsMsgTo reports whether the history holds any live message
// addressed to g (hst.containsMsgTo in Algorithm 3 line 38).
func (h *History) ContainsMsgTo(g amcast.GroupID) bool { return h.msgsTo[g] > 0 }

// alloc places a new vertex in a free or fresh slot.
func (h *History) alloc(n Node) int32 {
	var s int32
	if k := len(h.free); k > 0 {
		s = h.free[k-1]
		h.free = h.free[:k-1]
	} else {
		s = int32(len(h.slots))
		h.slots = append(h.slots, slot{})
	}
	sl := &h.slots[s]
	sl.id, sl.dst, sl.live = n.ID, n.Dst, true
	sl.gen++
	h.idx[n.ID] = s
	for _, g := range n.Dst {
		h.msgsTo[g]++
	}
	return s
}

// AddNode inserts a node if it is not already present, returning true when
// the node is new. If the node exists as a placeholder (empty destination
// set, materialized by an edge that referenced it), the destinations are
// filled in and the node is NOT reported as new.
func (h *History) AddNode(n Node) bool {
	_, isNew := h.addNode(n)
	return isNew
}

// addNode is AddNode, also reporting whether an existing placeholder's
// destinations were filled in.
func (h *History) addNode(n Node) (filled, isNew bool) {
	s, ok := h.idx[n.ID]
	if ok {
		sl := &h.slots[s]
		if len(sl.dst) == 0 && len(n.Dst) > 0 {
			sl.dst = n.Dst
			for _, g := range n.Dst {
				h.msgsTo[g]++
			}
			// Re-log the now-complete node so descendants whose diff
			// cursor already passed the placeholder entry still learn the
			// destinations.
			h.log = append(h.log, logEntry{node: n, from: h.refOf(s)})
			return true, false
		}
		return false, false
	}
	s = h.alloc(n)
	h.log = append(h.log, logEntry{node: n, from: h.refOf(s)})
	return false, true
}

// AddEdge inserts a dependency edge (from ordered before to), returning
// true when the edge is new. Unknown endpoints are materialized as
// placeholder nodes so that reachability through pruned or not-yet-known
// messages is preserved.
func (h *History) AddEdge(from, to amcast.MsgID) bool {
	if from == to {
		return false
	}
	fs, fok := h.idx[from]
	ts, tok := h.idx[to]
	if fok && tok && h.hasEdge(fs, ts) {
		return false
	}
	if !fok {
		fs = h.placeholder(from)
	}
	if !tok {
		ts = h.placeholder(to)
	}
	h.slots[fs].succ = append(h.slots[fs].succ, ts)
	h.slots[ts].pred = append(h.slots[ts].pred, fs)
	h.edges++
	h.log = append(h.log, logEntry{
		isEdge: true,
		edge:   amcast.HistEdge{From: from, To: to},
		from:   h.refOf(fs),
		to:     h.refOf(ts),
	})
	return true
}

// hasEdge reports whether the edge fs→ts exists, scanning the shorter of
// the two adjacency lists: a flush or a long-lived message can have a
// very high degree on one side. Merged diffs mostly repeat recent edges,
// so the scan runs newest first.
func (h *History) hasEdge(fs, ts int32) bool {
	succ, pred := h.slots[fs].succ, h.slots[ts].pred
	if len(succ) <= len(pred) {
		for i := len(succ) - 1; i >= 0; i-- {
			if succ[i] == ts {
				return true
			}
		}
		return false
	}
	for i := len(pred) - 1; i >= 0; i-- {
		if pred[i] == fs {
			return true
		}
	}
	return false
}

func (h *History) placeholder(id amcast.MsgID) int32 {
	n := Node{ID: id}
	s := h.alloc(n)
	h.log = append(h.log, logEntry{node: n, from: h.refOf(s)})
	return s
}

// AppendDelivered records a local delivery (hst-add in Algorithm 3): the
// node is inserted, ordered after the previous local delivery, and becomes
// lastDlvd. Reports whether the message was unknown to the history.
func (h *History) AppendDelivered(n Node) bool {
	isNew := h.AddNode(n)
	if h.last != 0 && h.last != n.ID {
		h.AddEdge(h.last, n.ID)
	}
	h.last = n.ID
	return isNew
}

// Merge integrates a received history diff (update-hst in Algorithm 3)
// and returns the nodes that were new to this history — including
// placeholder nodes (materialized earlier by an edge) whose destinations
// this diff fills in: the caller maintains its open-dependency set from
// the returned nodes, and a fill-in is the first time the destinations
// are known, so omitting it would leave a hole in dependency tracking.
func (h *History) Merge(d *amcast.HistDelta) []Node {
	if d == nil {
		return nil
	}
	var added []Node
	for _, hn := range d.Nodes {
		n := Node{ID: hn.ID, Dst: hn.Dst}
		if filled, isNew := h.addNode(n); filled || isNew {
			added = append(added, n)
		}
	}
	for _, e := range d.Edges {
		before := len(h.log)
		h.AddEdge(e.From, e.To)
		// AddEdge may materialize placeholder endpoints; report them too so
		// the engine can track them if they later gain destinations.
		for _, le := range h.log[before:] {
			if !le.isEdge {
				added = append(added, le.node)
			}
		}
	}
	return added
}

// Cursor is a per-descendant diff position: an index into the append-only
// log. A zero Cursor means "nothing sent yet".
type Cursor int

// liveEntry reports whether a log entry still names a live node or edge,
// refreshing its refs when they were stale but the id-level entry is live
// again (pruned, then re-added).
func (h *History) liveEntry(le *logEntry) bool {
	if !le.isEdge {
		if h.isLive(le.from) {
			return true
		}
		s, ok := h.idx[le.node.ID]
		if ok {
			le.from = h.refOf(s)
		}
		return ok
	}
	if h.isLive(le.from) && h.isLive(le.to) {
		return true
	}
	fs, fok := h.idx[le.edge.From]
	ts, tok := h.idx[le.edge.To]
	if !fok || !tok || !h.hasEdge(fs, ts) {
		return false
	}
	le.from, le.to = h.refOf(fs), h.refOf(ts)
	return true
}

// DiffSince returns the portion of the history appended after the cursor
// as a wire delta, plus the advanced cursor (diff-hst in Algorithm 3).
// Entries pruned by garbage collection are skipped: they recorded
// dependencies that are fully resolved system-wide (everything before a
// delivered flush), so descendants no longer need them — this is what
// keeps FlexCast's history piggybacking bounded (§4.3).
func (h *History) DiffSince(c Cursor) (*amcast.HistDelta, Cursor) {
	if int(c) >= len(h.log) {
		return nil, c
	}
	// One pass collects the live entries, so the delta's slices are
	// allocated once, at their final size.
	live := h.work[:0]
	edges := 0
	for i := int(c); i < len(h.log); i++ {
		if h.liveEntry(&h.log[i]) {
			live = append(live, int32(i))
			if h.log[i].isEdge {
				edges++
			}
		}
	}
	h.work = live[:0]
	if len(live) == 0 {
		return nil, Cursor(len(h.log))
	}
	d := &amcast.HistDelta{}
	if nodes := len(live) - edges; nodes > 0 {
		d.Nodes = make([]amcast.HistNode, 0, nodes)
	}
	if edges > 0 {
		d.Edges = make([]amcast.HistEdge, 0, edges)
	}
	for _, i := range live {
		le := &h.log[i]
		if le.isEdge {
			d.Edges = append(d.Edges, le.edge)
		} else {
			sl := &h.slots[le.from.slot]
			d.Nodes = append(d.Nodes, amcast.HistNode{ID: sl.id, Dst: sl.dst})
		}
	}
	return d, Cursor(len(h.log))
}

// CompactLog drops dead (pruned) entries from the log and remaps the
// given diff cursors to the compacted positions. Engines call it after a
// flush prune so long-lived runs keep bounded memory.
func (h *History) CompactLog(cursors []*Cursor) {
	live := h.log[:0]
	// remap[i] = number of surviving entries strictly before old index i.
	remap := make([]Cursor, len(h.log)+1)
	for i := range h.log {
		remap[i] = Cursor(len(live))
		if h.liveEntry(&h.log[i]) {
			live = append(live, h.log[i])
		}
	}
	remap[len(h.log)] = Cursor(len(live))
	clear(h.log[len(live):]) // drop the dead entries' Dst references
	h.log = live
	for _, c := range cursors {
		if int(*c) >= len(remap) {
			*c = Cursor(len(live))
			continue
		}
		*c = remap[*c]
	}
}

// LogLen reports the log size (tests and memory accounting).
func (h *History) LogLen() int { return len(h.log) }

// AnyBefore walks every node with a (transitive) path to m, excluding m
// itself, and reports whether pred returns true for any of them. This
// implements the second can-deliver condition of Algorithm 3: "is there an
// undelivered message addressed to me ordered before m".
func (h *History) AnyBefore(m amcast.MsgID, pred func(amcast.MsgID) bool) bool {
	return h.AnyBeforeUntil(m, pred, nil)
}

// AnyBeforeUntil is AnyBefore with search pruning: nodes for which stop
// returns true are tested against pred but their own predecessors are not
// explored. FlexCast prunes at locally delivered messages — the protocol
// guarantees that when a message is delivered every predecessor addressed
// to this group was delivered first, so nothing open can hide behind a
// delivered node. This turns the per-delivery dependency check from
// O(|history|) into O(open frontier).
//
// The walk shares the history's visit stamps and work list: pred and stop
// must not call back into h.
func (h *History) AnyBeforeUntil(m amcast.MsgID, pred, stop func(amcast.MsgID) bool) bool {
	s, ok := h.idx[m]
	if !ok {
		return false
	}
	stamp := h.nextStamp(1)
	h.slots[s].mark = stamp
	stack := h.pushUnvisited(h.work[:0], s, stamp)
	found := false
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		id := h.slots[cur].id
		if pred(id) {
			found = true
			break
		}
		if stop != nil && stop(id) {
			continue
		}
		stack = h.pushUnvisited(stack, cur, stamp)
	}
	h.work = stack[:0]
	return found
}

// pushUnvisited stamps s's predecessors not yet visited in this walk and
// pushes them onto stack.
func (h *History) pushUnvisited(stack []int32, s int32, stamp uint32) []int32 {
	for _, p := range h.slots[s].pred {
		if h.slots[p].mark != stamp {
			h.slots[p].mark = stamp
			stack = append(stack, p)
		}
	}
	return stack
}

// nextStamp reserves n consecutive fresh visit stamps and returns the
// first. When the counter would wrap, every mark is cleared so that no
// stale mark can equal a new stamp.
func (h *History) nextStamp(n uint32) uint32 {
	if h.stamp > ^uint32(0)-n {
		for i := range h.slots {
			h.slots[i].mark = 0
		}
		h.stamp = 0
	}
	first := h.stamp + 1
	h.stamp += n
	return first
}

// DependsOn reports whether m transitively depends on mPrime (mPrime was
// ordered before m somewhere in the system; depend(m, m') in Algorithm 3).
func (h *History) DependsOn(m, mPrime amcast.MsgID) bool {
	return h.AnyBefore(m, func(id amcast.MsgID) bool { return id == mPrime })
}

// PruneBefore removes every node with a path to flushID (i.e. every
// message ordered before the flush message) and their edges, implementing
// the garbage collection of §4.3. The flush node itself survives as the
// new history root. Returns the number of removed nodes.
func (h *History) PruneBefore(flushID amcast.MsgID) int {
	root, ok := h.idx[flushID]
	if !ok {
		return 0
	}
	// Collect the prune set, all strict ancestors of the flush, stamped
	// doomed; surviving neighbours of a doomed node get the next stamp.
	doomed := h.nextStamp(2)
	touched := doomed + 1
	h.slots[root].mark = doomed
	stack := h.pushUnvisited(h.work[:0], root, doomed)
	for i := 0; i < len(stack); i++ {
		stack = h.pushUnvisited(stack, stack[i], doomed)
	}
	n := len(stack)
	// The flush itself was stamped only to stop the walk; it survives.
	// If it sits on a cycle it is also one of the neighbours to unlink.
	h.slots[root].mark = 0
	for _, d := range stack[:n] {
		for _, list := range [2][]int32{h.slots[d].succ, h.slots[d].pred} {
			for _, v := range list {
				if m := h.slots[v].mark; m != doomed && m != touched {
					h.slots[v].mark = touched
					stack = append(stack, v)
				}
			}
		}
	}
	for _, v := range stack[n:] {
		sl := &h.slots[v]
		var cut int
		sl.succ, cut = h.dropMarked(sl.succ, doomed)
		h.edges -= cut
		sl.pred, _ = h.dropMarked(sl.pred, doomed)
	}
	for _, d := range stack[:n] {
		sl := &h.slots[d]
		h.edges -= len(sl.succ)
		for _, g := range sl.dst {
			h.msgsTo[g]--
		}
		delete(h.idx, sl.id)
		sl.id, sl.dst, sl.live = 0, nil, false
		sl.succ, sl.pred = sl.succ[:0], sl.pred[:0]
		h.free = append(h.free, d)
	}
	h.work = stack[:0]
	return n
}

// dropMarked removes, in place, the slots of list stamped with mark,
// returning the shortened list and how many were removed.
func (h *History) dropMarked(list []int32, mark uint32) ([]int32, int) {
	kept := list[:0]
	for _, v := range list {
		if h.slots[v].mark != mark {
			kept = append(kept, v)
		}
	}
	return kept, len(list) - len(kept)
}

// Clone returns a deep copy of the history: mutating either copy leaves
// the other untouched. Node destination slices are shared — they are
// immutable once inserted. Engines use Clone to implement the
// amcast.SnapshotEngine crash/recovery contract.
func (h *History) Clone() *History {
	c := &History{
		idx:    make(map[amcast.MsgID]int32, len(h.idx)),
		slots:  append([]slot(nil), h.slots...),
		free:   append([]int32(nil), h.free...),
		edges:  h.edges,
		last:   h.last,
		msgsTo: make(map[amcast.GroupID]int, len(h.msgsTo)),
		log:    append([]logEntry(nil), h.log...),
		stamp:  h.stamp,
	}
	for id, s := range h.idx {
		c.idx[id] = s
	}
	// One backing array holds every copied adjacency list; each list is
	// capped at its length, so a later append reallocates instead of
	// running into its neighbour.
	total := 0
	for i := range h.slots {
		total += len(h.slots[i].succ) + len(h.slots[i].pred)
	}
	adj := make([]int32, 0, total)
	for i := range c.slots {
		sl := &c.slots[i]
		start := len(adj)
		adj = append(adj, sl.succ...)
		sl.succ = adj[start:len(adj):len(adj)]
		start = len(adj)
		adj = append(adj, sl.pred...)
		sl.pred = adj[start:len(adj):len(adj)]
	}
	for g, n := range h.msgsTo {
		c.msgsTo[g] = n
	}
	return c
}

// Snapshot returns all live nodes sorted by id and all live edges sorted
// by (from, to); used by tests and debugging dumps.
func (h *History) Snapshot() ([]Node, []amcast.HistEdge) {
	ns := make([]Node, 0, len(h.idx))
	var es []amcast.HistEdge
	for i := range h.slots {
		sl := &h.slots[i]
		if !sl.live {
			continue
		}
		ns = append(ns, Node{ID: sl.id, Dst: sl.dst})
		for _, s := range sl.succ {
			es = append(es, amcast.HistEdge{From: sl.id, To: h.slots[s].id})
		}
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i].ID < ns[j].ID })
	sort.Slice(es, func(i, j int) bool {
		if es[i].From != es[j].From {
			return es[i].From < es[j].From
		}
		return es[i].To < es[j].To
	})
	return ns, es
}

// CheckAcyclic verifies that the live dependency graph is a DAG. A cycle
// would mean the protocol violated acyclic order; tests call this after
// every merge.
func (h *History) CheckAcyclic() error {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]uint8, len(h.slots))
	var visit func(s int32) error
	visit = func(s int32) error {
		color[s] = gray
		for _, v := range h.slots[s].succ {
			switch color[v] {
			case gray:
				return fmt.Errorf("history: cycle through %s and %s", h.slots[s].id, h.slots[v].id)
			case white:
				if err := visit(v); err != nil {
					return err
				}
			}
		}
		color[s] = black
		return nil
	}
	for i := range h.slots {
		if h.slots[i].live && color[i] == white {
			if err := visit(int32(i)); err != nil {
				return err
			}
		}
	}
	return nil
}
