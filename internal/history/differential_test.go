package history

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"flexcast/amcast"
	"flexcast/internal/codec"
)

// diffRun drives a History and the map-based oracle (oracle_test.go)
// through the same operations, decoded from a byte string, and fails on
// the first operation whose results differ. Ids come from a small range
// so pruned ids are re-added, placeholders are filled in and random edges
// close cycles (flushes on cycles included).
type diffRun struct {
	t    testing.TB
	data []byte
	pos  int
	h    *History
	o    *mapHistory
	hc   [3]Cursor
	oc   [3]Cursor
}

const (
	diffIDs    = 12
	diffGroups = 4
)

func (r *diffRun) next() byte {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

func (r *diffRun) id() amcast.MsgID { return amcast.MsgID(1 + int(r.next())%diffIDs) }

// node builds a node whose destination set may be empty (a placeholder
// look-alike), shared by both implementations as the engine shares it.
func (r *diffRun) node() Node {
	n := Node{ID: r.id()}
	mask := r.next()
	for g := 0; g < diffGroups; g++ {
		if mask&(1<<g) != 0 {
			n.Dst = append(n.Dst, amcast.GroupID(g+1))
		}
	}
	return n
}

// idSet decodes a bitmask over the id range into a membership test.
func (r *diffRun) idSet() func(amcast.MsgID) bool {
	mask := uint16(r.next()) | uint16(r.next())<<8
	return func(id amcast.MsgID) bool { return mask&(1<<(uint64(id)%16)) != 0 }
}

func (r *diffRun) delta() *amcast.HistDelta {
	b := r.next()
	if b%8 == 0 {
		return nil
	}
	d := &amcast.HistDelta{}
	for i := 0; i < int(b/8)%4; i++ {
		n := r.node()
		d.Nodes = append(d.Nodes, amcast.HistNode{ID: n.ID, Dst: n.Dst})
	}
	for i := 0; i < int(r.next())%4; i++ {
		d.Edges = append(d.Edges, amcast.HistEdge{From: r.id(), To: r.id()})
	}
	return d
}

func (r *diffRun) fail(op int, what string, got, want any) {
	r.t.Helper()
	r.t.Fatalf("op %d at byte %d: %s = %v, oracle %v", op, r.pos, what, got, want)
}

func (r *diffRun) check(op int, what string, got, want any) {
	r.t.Helper()
	if !reflect.DeepEqual(got, want) {
		r.fail(op, what, got, want)
	}
}

// step applies one operation to both implementations.
func (r *diffRun) step(op int) {
	r.t.Helper()
	h, o := r.h, r.o
	switch k := r.next() % 13; k {
	case 0:
		n := r.node()
		r.check(op, "AddNode", h.AddNode(n), o.AddNode(n))
	case 1:
		a, b := r.id(), r.id()
		r.check(op, "AddEdge", h.AddEdge(a, b), o.AddEdge(a, b))
	case 2:
		n := r.node()
		r.check(op, "AppendDelivered", h.AppendDelivered(n), o.AppendDelivered(n))
	case 3:
		d := r.delta()
		r.check(op, "Merge", h.Merge(d), o.Merge(d))
	case 4:
		i := int(r.next()) % len(r.hc)
		hd, hc := h.DiffSince(r.hc[i])
		od, oc := o.DiffSince(r.oc[i])
		r.check(op, "DiffSince delta", hd, od)
		r.check(op, "DiffSince cursor", hc, oc)
		r.hc[i], r.oc[i] = hc, oc
	case 5:
		h.CompactLog([]*Cursor{&r.hc[0], &r.hc[1], &r.hc[2]})
		o.CompactLog([]*Cursor{&r.oc[0], &r.oc[1], &r.oc[2]})
		r.check(op, "CompactLog cursors", r.hc, r.oc)
	case 6:
		id := r.id()
		if r.next()%4 == 0 {
			id += diffIDs // never present: prune of an unknown flush
		}
		r.check(op, "PruneBefore", h.PruneBefore(id), o.PruneBefore(id))
	case 7:
		m, pred, stop := r.id(), r.idSet(), r.idSet()
		if r.next()%3 == 0 {
			stop = nil
		}
		r.check(op, "AnyBeforeUntil", h.AnyBeforeUntil(m, pred, stop), o.AnyBeforeUntil(m, pred, stop))
		a, b := r.id(), r.id()
		r.check(op, "DependsOn", h.DependsOn(a, b), o.DependsOn(a, b))
	case 8:
		// Continue on the clones and mutate the originals: a clone that
		// shares state with its original diverges from the oracle's.
		r.h, r.o = h.Clone(), o.Clone()
		a, b, f := r.id(), r.id(), r.id()
		h.AddEdge(a, b)
		o.AddEdge(a, b)
		h.PruneBefore(f)
		o.PruneBefore(f)
		h.AddNode(Node{ID: a + diffIDs})
	case 9:
		r.h = decodeChecked(r.t, h.AppendBinary(nil), Decode)
		r.o = decodeChecked(r.t, o.AppendBinary(nil), decodeMap)
	case 10:
		id := r.id()
		g := amcast.GroupID(1 + int(r.next())%diffGroups)
		r.check(op, "Contains", h.Contains(id), o.Contains(id))
		hn, hok := h.NodeOf(id)
		on, ook := o.NodeOf(id)
		r.check(op, "NodeOf", hn, on)
		r.check(op, "NodeOf ok", hok, ook)
		r.check(op, "ContainsMsgTo", h.ContainsMsgTo(g), o.ContainsMsgTo(g))
		r.check(op, "LastDelivered", h.LastDelivered(), o.LastDelivered())
	case 11:
		hn, he := h.Snapshot()
		on, oe := o.Snapshot()
		r.check(op, "Snapshot nodes", hn, on)
		r.check(op, "Snapshot edges", he, oe)
		r.check(op, "CheckAcyclic ok", h.CheckAcyclic() == nil, o.CheckAcyclic() == nil)
	case 12:
		// Move the visit-stamp counter forward, next to its wrap: walks
		// must behave the same across the reset.
		h.stamp = max(h.stamp, ^uint32(0)-uint32(r.next()%3))
	}
	r.compareState(op)
}

func (r *diffRun) compareState(op int) {
	r.t.Helper()
	h, o := r.h, r.o
	r.check(op, "Len", h.Len(), o.Len())
	r.check(op, "EdgeCount", h.EdgeCount(), o.EdgeCount())
	r.check(op, "LogLen", h.LogLen(), o.LogLen())
	if hb, ob := h.AppendBinary(nil), o.AppendBinary(nil); !bytes.Equal(hb, ob) {
		r.fail(op, "AppendBinary", hb, ob)
	}
}

func decodeChecked[H any](t testing.TB, data []byte, dec func(*codec.Reader) H) H {
	t.Helper()
	rd := codec.NewReader(data)
	h := dec(rd)
	if err := rd.Close(); err != nil {
		t.Fatal(err)
	}
	return h
}

func runDifferential(t testing.TB, data []byte) {
	r := &diffRun{t: t, data: data, h: New(), o: newMapHistory()}
	for op := 0; r.pos < len(data); op++ {
		r.step(op)
	}
}

// TestDifferentialAgainstMapHistory runs 400 seeded random operation
// sequences against the oracle, comparing every return value and, after
// every operation, the sizes and the AppendBinary bytes.
func TestDifferentialAgainstMapHistory(t *testing.T) {
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 1500)
		rng.Read(data)
		runDifferential(t, data)
	}
}

// FuzzDifferential is the differential test over arbitrary operation
// strings.
func FuzzDifferential(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 256)
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runDifferential(t, data)
	})
}
