package transport

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"flexcast/amcast"
	"flexcast/internal/core"
	"flexcast/internal/overlay"
	"flexcast/internal/runtime"
	"flexcast/internal/skeen"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

// deliverLog collects deliveries thread-safely.
type deliverLog struct {
	mu   sync.Mutex
	seqs map[amcast.GroupID][]amcast.MsgID
}

func newDeliverLog() *deliverLog {
	return &deliverLog{seqs: make(map[amcast.GroupID][]amcast.MsgID)}
}

func (l *deliverLog) add(d amcast.Delivery) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seqs[d.Group] = append(l.seqs[d.Group], d.Msg.ID)
}

func (l *deliverLog) seq(g amcast.GroupID) []amcast.MsgID {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]amcast.MsgID(nil), l.seqs[g]...)
}

func (l *deliverLog) total() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, s := range l.seqs {
		n += len(s)
	}
	return n
}

func msg(id uint64, dst ...amcast.GroupID) amcast.Message {
	return amcast.Message{
		ID:     amcast.MsgID(id),
		Sender: amcast.ClientNode(0),
		Dst:    amcast.NormalizeDst(dst),
	}
}

func TestInMemFlexCastThreeGroups(t *testing.T) {
	ov := overlay.MustCDAG([]amcast.GroupID{1, 2, 3})
	net := NewInMemNet()
	defer net.Close()
	log := newDeliverLog()
	for _, g := range ov.Order() {
		eng := core.MustNew(core.Config{Group: g, Overlay: ov})
		inmemEngine(t, net, eng, log.add)
	}
	var replies sync.Map
	if err := net.AddHandler(amcast.ClientNode(0), func(env amcast.Envelope) {
		if env.Kind == amcast.KindReply {
			replies.Store(fmt.Sprintf("%s-%d", env.Msg.ID, env.From), true)
		}
	}); err != nil {
		t.Fatal(err)
	}

	for i := uint64(1); i <= 5; i++ {
		m := msg(i, 1, 2, 3)
		net.Send(amcast.ClientNode(0), amcast.GroupNode(ov.Lca(m.Dst)),
			amcast.Envelope{Kind: amcast.KindRequest, From: m.Sender, Msg: m})
	}
	waitFor(t, 5*time.Second, func() bool { return log.total() == 15 })

	want := []amcast.MsgID{1, 2, 3, 4, 5}
	for _, g := range ov.Order() {
		if got := log.seq(g); !reflect.DeepEqual(got, want) {
			t.Fatalf("group %d delivered %v, want %v", g, got, want)
		}
	}
	// Every destination replied to the client.
	waitFor(t, 5*time.Second, func() bool {
		n := 0
		replies.Range(func(_, _ interface{}) bool { n++; return true })
		return n == 15
	})
}

func TestInMemDuplicateRegistration(t *testing.T) {
	net := NewInMemNet()
	defer net.Close()
	if err := net.AddHandler(amcast.ClientNode(0), func(amcast.Envelope) {}); err != nil {
		t.Fatal(err)
	}
	if err := net.AddHandler(amcast.ClientNode(0), func(amcast.Envelope) {}); err == nil {
		t.Fatal("duplicate registration accepted")
	}
}

func TestInMemSendToUnknownNodeDropped(t *testing.T) {
	net := NewInMemNet()
	defer net.Close()
	// Must not panic or block.
	net.Send(amcast.ClientNode(0), amcast.GroupNode(9), amcast.Envelope{Kind: amcast.KindFwd})
}

func TestInMemCloseIdempotent(t *testing.T) {
	net := NewInMemNet()
	net.Close()
	net.Close()
	if err := net.AddHandler(amcast.ClientNode(0), func(amcast.Envelope) {}); err == nil {
		t.Fatal("registration after close accepted")
	}
}

func tcpBook(t *testing.T, ids ...amcast.NodeID) AddrBook {
	t.Helper()
	book := make(AddrBook)
	for _, id := range ids {
		ln, err := net_Listen()
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()
		book[id] = addr
	}
	return book
}

func TestTCPSkeenTwoGroups(t *testing.T) {
	groups := []amcast.GroupID{1, 2}
	ids := []amcast.NodeID{amcast.GroupNode(1), amcast.GroupNode(2), amcast.ClientNode(0)}
	book := tcpBook(t, ids...)

	log := newDeliverLog()
	var nodes []*TCPNode
	for _, g := range groups {
		eng := skeen.MustNew(skeen.Config{Group: g, Groups: groups})
		nodes = append(nodes, tcpEngine(t, eng, book, log.add))
	}
	var replyCount sync.Map
	cl, err := NewTCPNode(amcast.ClientNode(0), book, func(env amcast.Envelope) {
		if env.Kind == amcast.KindReply {
			replyCount.Store(fmt.Sprintf("%s-%d", env.Msg.ID, env.From), true)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		cl.Close()
		for _, n := range nodes {
			n.Close()
		}
	}()

	for i := uint64(1); i <= 3; i++ {
		m := msg(i, 1, 2)
		for _, g := range m.Dst {
			if err := cl.Send(amcast.GroupNode(g),
				amcast.Envelope{Kind: amcast.KindRequest, From: m.Sender, Msg: m}); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitFor(t, 10*time.Second, func() bool { return log.total() == 6 })
	if !reflect.DeepEqual(log.seq(1), log.seq(2)) {
		t.Fatalf("groups disagree: %v vs %v", log.seq(1), log.seq(2))
	}
}

func TestTCPUnknownPeer(t *testing.T) {
	book := tcpBook(t, amcast.ClientNode(0))
	n, err := NewTCPNode(amcast.ClientNode(0), book, func(amcast.Envelope) {})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.Send(amcast.GroupNode(9), amcast.Envelope{Kind: amcast.KindFwd}); err == nil {
		t.Fatal("send to unknown peer succeeded")
	}
}

func TestTCPNodeNotInBook(t *testing.T) {
	if _, err := NewTCPNode(amcast.ClientNode(0), AddrBook{}, func(amcast.Envelope) {}); err == nil {
		t.Fatal("node without address accepted")
	}
}

func TestTCPCloseUnblocks(t *testing.T) {
	book := tcpBook(t, amcast.ClientNode(0))
	n, err := NewTCPNode(amcast.ClientNode(0), book, func(amcast.Envelope) {})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		n.Close()
		n.Close() // idempotent
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return")
	}
	if err := n.Send(amcast.ClientNode(0), amcast.Envelope{Kind: amcast.KindFwd}); err == nil {
		t.Fatal("send after close succeeded")
	}
}

// inmemEngine attaches eng to nw behind a batched runtime node, the
// in-memory wiring every deployment uses.
func inmemEngine(t *testing.T, nw *InMemNet, eng amcast.Engine, onDeliver func(amcast.Delivery)) {
	t.Helper()
	id := amcast.GroupNode(eng.Group())
	node := runtime.NewNode(eng, func(to amcast.NodeID, envs []amcast.Envelope) { nw.SendBatch(id, to, envs) },
		runtime.Config{OnDeliver: onDeliver})
	t.Cleanup(node.Close)
	if err := nw.AddBatchHandler(id, node.Submit); err != nil {
		t.Fatal(err)
	}
}

// tcpEngine runs eng behind a batched runtime node on a TCP node, the
// wiring of internal/deploy.TCP. Cleanup closes the runtime node
// after the caller's own deferred TCP node Close.
func tcpEngine(t *testing.T, eng amcast.Engine, book AddrBook, onDeliver func(amcast.Delivery)) *TCPNode {
	t.Helper()
	id := amcast.GroupNode(eng.Group())
	ln, err := Listen(id, book)
	if err != nil {
		t.Fatal(err)
	}
	tn := ListenerNode(id, ln, book)
	node := runtime.NewNode(eng, func(to amcast.NodeID, envs []amcast.Envelope) { _ = tn.SendBatch(to, envs) },
		runtime.Config{OnDeliver: onDeliver})
	t.Cleanup(node.Close)
	tn.Serve(node.Submit)
	return tn
}
