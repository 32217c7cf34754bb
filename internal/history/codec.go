package history

import (
	"encoding/binary"

	"flexcast/amcast"
	"flexcast/internal/codec"
)

// AppendBinary appends a canonical encoding of the history: lastDlvd,
// the append-only log (pruned entries included — diff cursors are
// indexes into it, so the log must survive serialization verbatim),
// live nodes sorted by id, and live edges sorted by (from, to). Slots,
// generations and the msgsTo counters are rebuilt on decode, so the
// encoding does not depend on slot numbering.
func (h *History) AppendBinary(buf []byte) []byte {
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

// Decode reads an AppendBinary record from r and rebuilds the history.
// Returns a usable empty history if the reader has latched an error;
// the caller checks r.Err/Close once at the end.
func Decode(r *codec.Reader) *History {
	h := New()
	h.last = amcast.MsgID(r.Uvarint())
	nLog := r.Count()
	h.log = make([]logEntry, 0, nLog)
	for i := 0; i < nLog && r.Err() == nil; i++ {
		if r.Bool() {
			h.log = append(h.log, logEntry{isEdge: true, edge: amcast.HistEdge{
				From: amcast.MsgID(r.Uvarint()),
				To:   amcast.MsgID(r.Uvarint()),
			}})
		} else {
			h.log = append(h.log, logEntry{node: Node{
				ID:  amcast.MsgID(r.Uvarint()),
				Dst: r.Groups(),
			}})
		}
	}
	// The log's refs stay zero (stale): the first liveness test of each
	// entry resolves it by id and refreshes it, so a decoded edge entry
	// can never claim an edge that was pruned and is absent now.
	nNodes := r.Count()
	for i := 0; i < nNodes && r.Err() == nil; i++ {
		n := Node{ID: amcast.MsgID(r.Uvarint()), Dst: r.Groups()}
		if _, dup := h.idx[n.ID]; !dup {
			h.alloc(n)
		}
	}
	nEdges := r.Count()
	for i := 0; i < nEdges && r.Err() == nil; i++ {
		fs, fok := h.idx[amcast.MsgID(r.Uvarint())]
		ts, tok := h.idx[amcast.MsgID(r.Uvarint())]
		if !fok || !tok || fs == ts {
			continue // not in a record AppendBinary writes
		}
		h.slots[fs].succ = append(h.slots[fs].succ, ts)
		h.slots[ts].pred = append(h.slots[ts].pred, fs)
		h.edges++
	}
	return h
}

// Equal reports whether two histories have identical live state and log
// (test helper for codec round-trips).
func (h *History) Equal(o *History) bool {
	if h.last != o.last || len(h.log) != len(o.log) {
		return false
	}
	for i, le := range h.log {
		ol := o.log[i]
		if le.isEdge != ol.isEdge || le.edge != ol.edge || le.node.ID != ol.node.ID {
			return false
		}
		if len(le.node.Dst) != len(ol.node.Dst) {
			return false
		}
		for j := range le.node.Dst {
			if le.node.Dst[j] != ol.node.Dst[j] {
				return false
			}
		}
	}
	an, ae := h.Snapshot()
	bn, be := o.Snapshot()
	if len(an) != len(bn) || len(ae) != len(be) {
		return false
	}
	for i := range an {
		if an[i].ID != bn[i].ID || len(an[i].Dst) != len(bn[i].Dst) {
			return false
		}
		for j := range an[i].Dst {
			if an[i].Dst[j] != bn[i].Dst[j] {
				return false
			}
		}
	}
	for i := range ae {
		if ae[i] != be[i] {
			return false
		}
	}
	return true
}
