package history

// This file keeps the map-based history that the slot-based History
// replaced, verbatim apart from names, as the oracle of the
// differential test (differential_test.go). Every exported-method
// counterpart must return exactly what History returns.

import (
	"encoding/binary"
	"fmt"
	"sort"

	"flexcast/amcast"
	"flexcast/internal/codec"
)

type mapLogEntry struct {
	isEdge bool
	node   Node
	edge   amcast.HistEdge
}

type mapHistory struct {
	nodes  map[amcast.MsgID]Node
	succ   map[amcast.MsgID]map[amcast.MsgID]struct{}
	pred   map[amcast.MsgID]map[amcast.MsgID]struct{}
	last   amcast.MsgID // lastDlvd; 0 means ⊥
	msgsTo map[amcast.GroupID]int
	log    []mapLogEntry
}

func newMapHistory() *mapHistory {
	return &mapHistory{
		nodes:  make(map[amcast.MsgID]Node),
		succ:   make(map[amcast.MsgID]map[amcast.MsgID]struct{}),
		pred:   make(map[amcast.MsgID]map[amcast.MsgID]struct{}),
		msgsTo: make(map[amcast.GroupID]int),
	}
}

func (h *mapHistory) Len() int { return len(h.nodes) }

func (h *mapHistory) EdgeCount() int {
	n := 0
	for _, s := range h.succ {
		n += len(s)
	}
	return n
}

func (h *mapHistory) Contains(id amcast.MsgID) bool {
	_, ok := h.nodes[id]
	return ok
}

func (h *mapHistory) NodeOf(id amcast.MsgID) (Node, bool) {
	n, ok := h.nodes[id]
	return n, ok
}

func (h *mapHistory) LastDelivered() amcast.MsgID { return h.last }

func (h *mapHistory) ContainsMsgTo(g amcast.GroupID) bool { return h.msgsTo[g] > 0 }

func (h *mapHistory) AddNode(n Node) bool {
	existing, ok := h.nodes[n.ID]
	if ok {
		if len(existing.Dst) == 0 && len(n.Dst) > 0 {
			h.nodes[n.ID] = n
			for _, g := range n.Dst {
				h.msgsTo[g]++
			}
			h.log = append(h.log, mapLogEntry{node: n})
		}
		return false
	}
	h.nodes[n.ID] = n
	for _, g := range n.Dst {
		h.msgsTo[g]++
	}
	h.log = append(h.log, mapLogEntry{node: n})
	return true
}

func (h *mapHistory) AddEdge(from, to amcast.MsgID) bool {
	if from == to {
		return false
	}
	if s, ok := h.succ[from]; ok {
		if _, dup := s[to]; dup {
			return false
		}
	}
	h.ensureNode(from)
	h.ensureNode(to)
	mapAddSet(h.succ, from, to)
	mapAddSet(h.pred, to, from)
	h.log = append(h.log, mapLogEntry{isEdge: true, edge: amcast.HistEdge{From: from, To: to}})
	return true
}

func (h *mapHistory) ensureNode(id amcast.MsgID) {
	if _, ok := h.nodes[id]; !ok {
		n := Node{ID: id}
		h.nodes[id] = n
		h.log = append(h.log, mapLogEntry{node: n})
	}
}

func mapAddSet(m map[amcast.MsgID]map[amcast.MsgID]struct{}, k, v amcast.MsgID) {
	s, ok := m[k]
	if !ok {
		s = make(map[amcast.MsgID]struct{})
		m[k] = s
	}
	s[v] = struct{}{}
}

func (h *mapHistory) AppendDelivered(n Node) bool {
	isNew := h.AddNode(n)
	if h.last != 0 && h.last != n.ID {
		h.AddEdge(h.last, n.ID)
	}
	h.last = n.ID
	return isNew
}

func (h *mapHistory) Merge(d *amcast.HistDelta) []Node {
	if d == nil {
		return nil
	}
	var added []Node
	for _, hn := range d.Nodes {
		n := Node{ID: hn.ID, Dst: hn.Dst}
		prev, existed := h.nodes[n.ID]
		if h.AddNode(n) {
			added = append(added, n)
		} else if existed && len(prev.Dst) == 0 && len(n.Dst) > 0 {
			added = append(added, n)
		}
	}
	for _, e := range d.Edges {
		before := len(h.log)
		h.AddEdge(e.From, e.To)
		for _, le := range h.log[before:] {
			if !le.isEdge {
				added = append(added, le.node)
			}
		}
	}
	return added
}

func (h *mapHistory) DiffSince(c Cursor) (*amcast.HistDelta, Cursor) {
	if int(c) >= len(h.log) {
		return nil, c
	}
	var d *amcast.HistDelta
	for _, le := range h.log[c:] {
		if le.isEdge {
			if s, ok := h.succ[le.edge.From]; !ok {
				continue
			} else if _, live := s[le.edge.To]; !live {
				continue
			}
			if d == nil {
				d = &amcast.HistDelta{}
			}
			d.Edges = append(d.Edges, le.edge)
		} else {
			n, ok := h.nodes[le.node.ID]
			if !ok {
				continue
			}
			if d == nil {
				d = &amcast.HistDelta{}
			}
			d.Nodes = append(d.Nodes, amcast.HistNode{ID: n.ID, Dst: n.Dst})
		}
	}
	return d, Cursor(len(h.log))
}

func (h *mapHistory) CompactLog(cursors []*Cursor) {
	live := h.log[:0]
	remap := make([]Cursor, len(h.log)+1)
	for i, le := range h.log {
		remap[i] = Cursor(len(live))
		keep := false
		if le.isEdge {
			if s, ok := h.succ[le.edge.From]; ok {
				_, keep = s[le.edge.To]
			}
		} else {
			_, keep = h.nodes[le.node.ID]
		}
		if keep {
			live = append(live, le)
		}
	}
	remap[len(h.log)] = Cursor(len(live))
	h.log = live
	for _, c := range cursors {
		if int(*c) >= len(remap) {
			*c = Cursor(len(live))
			continue
		}
		*c = remap[*c]
	}
}

func (h *mapHistory) LogLen() int { return len(h.log) }

func (h *mapHistory) AnyBefore(m amcast.MsgID, pred func(amcast.MsgID) bool) bool {
	return h.AnyBeforeUntil(m, pred, nil)
}

func (h *mapHistory) AnyBeforeUntil(m amcast.MsgID, pred, stop func(amcast.MsgID) bool) bool {
	seen := map[amcast.MsgID]bool{m: true}
	stack := make([]amcast.MsgID, 0, 8)
	for p := range h.pred[m] {
		if !seen[p] {
			seen[p] = true
			stack = append(stack, p)
		}
	}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if pred(cur) {
			return true
		}
		if stop != nil && stop(cur) {
			continue
		}
		for p := range h.pred[cur] {
			if !seen[p] {
				seen[p] = true
				stack = append(stack, p)
			}
		}
	}
	return false
}

func (h *mapHistory) DependsOn(m, mPrime amcast.MsgID) bool {
	return h.AnyBefore(m, func(id amcast.MsgID) bool { return id == mPrime })
}

func (h *mapHistory) PruneBefore(flushID amcast.MsgID) int {
	if _, ok := h.nodes[flushID]; !ok {
		return 0
	}
	doomed := make(map[amcast.MsgID]bool)
	h.AnyBefore(flushID, func(id amcast.MsgID) bool {
		doomed[id] = true
		return false
	})
	for id := range doomed {
		n := h.nodes[id]
		for _, g := range n.Dst {
			h.msgsTo[g]--
		}
		delete(h.nodes, id)
		for s := range h.succ[id] {
			delete(h.pred[s], id)
		}
		for p := range h.pred[id] {
			delete(h.succ[p], id)
		}
		delete(h.succ, id)
		delete(h.pred, id)
	}
	return len(doomed)
}

func (h *mapHistory) Clone() *mapHistory {
	c := &mapHistory{
		nodes:  make(map[amcast.MsgID]Node, len(h.nodes)),
		succ:   make(map[amcast.MsgID]map[amcast.MsgID]struct{}, len(h.succ)),
		pred:   make(map[amcast.MsgID]map[amcast.MsgID]struct{}, len(h.pred)),
		last:   h.last,
		msgsTo: make(map[amcast.GroupID]int, len(h.msgsTo)),
		log:    append([]mapLogEntry(nil), h.log...),
	}
	for id, n := range h.nodes {
		c.nodes[id] = n
	}
	for id, s := range h.succ {
		cs := make(map[amcast.MsgID]struct{}, len(s))
		for v := range s {
			cs[v] = struct{}{}
		}
		c.succ[id] = cs
	}
	for id, s := range h.pred {
		cs := make(map[amcast.MsgID]struct{}, len(s))
		for v := range s {
			cs[v] = struct{}{}
		}
		c.pred[id] = cs
	}
	for g, n := range h.msgsTo {
		c.msgsTo[g] = n
	}
	return c
}

func (h *mapHistory) Snapshot() ([]Node, []amcast.HistEdge) {
	ns := make([]Node, 0, len(h.nodes))
	for _, n := range h.nodes {
		ns = append(ns, n)
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i].ID < ns[j].ID })
	var es []amcast.HistEdge
	for from, s := range h.succ {
		for to := range s {
			es = append(es, amcast.HistEdge{From: from, To: to})
		}
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].From != es[j].From {
			return es[i].From < es[j].From
		}
		return es[i].To < es[j].To
	})
	return ns, es
}

func (h *mapHistory) CheckAcyclic() error {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[amcast.MsgID]int, len(h.nodes))
	var visit func(id amcast.MsgID) error
	visit = func(id amcast.MsgID) error {
		color[id] = gray
		for s := range h.succ[id] {
			switch color[s] {
			case gray:
				return fmt.Errorf("history: cycle through %s and %s", id, s)
			case white:
				if err := visit(s); err != nil {
					return err
				}
			}
		}
		color[id] = black
		return nil
	}
	for id := range h.nodes {
		if color[id] == white {
			if err := visit(id); err != nil {
				return err
			}
		}
	}
	return nil
}

func (h *mapHistory) AppendBinary(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(h.last))
	buf = binary.AppendUvarint(buf, uint64(len(h.log)))
	for _, le := range h.log {
		buf = codec.AppendBool(buf, le.isEdge)
		if le.isEdge {
			buf = binary.AppendUvarint(buf, uint64(le.edge.From))
			buf = binary.AppendUvarint(buf, uint64(le.edge.To))
		} else {
			buf = binary.AppendUvarint(buf, uint64(le.node.ID))
			buf = codec.AppendGroups(buf, le.node.Dst)
		}
	}
	ns, es := h.Snapshot()
	buf = binary.AppendUvarint(buf, uint64(len(ns)))
	for _, n := range ns {
		buf = binary.AppendUvarint(buf, uint64(n.ID))
		buf = codec.AppendGroups(buf, n.Dst)
	}
	buf = binary.AppendUvarint(buf, uint64(len(es)))
	for _, e := range es {
		buf = binary.AppendUvarint(buf, uint64(e.From))
		buf = binary.AppendUvarint(buf, uint64(e.To))
	}
	return buf
}

func decodeMap(r *codec.Reader) *mapHistory {
	h := newMapHistory()
	h.last = amcast.MsgID(r.Uvarint())
	nLog := r.Count()
	h.log = make([]mapLogEntry, 0, nLog)
	for i := 0; i < nLog && r.Err() == nil; i++ {
		if r.Bool() {
			h.log = append(h.log, mapLogEntry{isEdge: true, edge: amcast.HistEdge{
				From: amcast.MsgID(r.Uvarint()),
				To:   amcast.MsgID(r.Uvarint()),
			}})
		} else {
			h.log = append(h.log, mapLogEntry{node: Node{
				ID:  amcast.MsgID(r.Uvarint()),
				Dst: r.Groups(),
			}})
		}
	}
	nNodes := r.Count()
	for i := 0; i < nNodes && r.Err() == nil; i++ {
		n := Node{ID: amcast.MsgID(r.Uvarint()), Dst: r.Groups()}
		h.nodes[n.ID] = n
		for _, g := range n.Dst {
			h.msgsTo[g]++
		}
	}
	nEdges := r.Count()
	for i := 0; i < nEdges && r.Err() == nil; i++ {
		from := amcast.MsgID(r.Uvarint())
		to := amcast.MsgID(r.Uvarint())
		mapAddSet(h.succ, from, to)
		mapAddSet(h.pred, to, from)
	}
	return h
}
