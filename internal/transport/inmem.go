// Package transport provides real (wall-clock) runtimes for the protocol
// engines: an in-memory goroutine transport for single-process
// deployments and demos, and a TCP transport for multi-process
// deployments (cmd/flexnode, cmd/flexclient). Both feed each node from
// a single goroutine, preserving the engines' single-threaded contract,
// and both use the wire codec so message sizes match the simulator's
// accounting. Both carry envelope batches natively: a batch travels the
// transport as one unit (one channel operation in memory, one frame on
// the wire), which is what the batched node runtime (internal/runtime)
// builds on.
package transport

import (
	"fmt"
	"sync"

	"flexcast/amcast"
)

// BatchHandler consumes one inbound batch. The slice is owned by the
// callee and is never reused by the transport.
type BatchHandler func(envs []amcast.Envelope)

// InMemNet connects nodes through buffered channels, one mailbox
// goroutine per node — the group-sharding of the in-process runtime.
// Mailboxes carry batches; a full mailbox blocks the sender, providing
// natural backpressure. Close stops all nodes and waits for them.
// Registration is mutex-guarded; the send path takes only a read lock,
// so concurrent senders do not serialize on the registry.
type InMemNet struct {
	mu     sync.RWMutex
	nodes  map[amcast.NodeID]*inmemNode
	closed bool
	wg     sync.WaitGroup
}

// inmemNode is one mailbox: an envelope-bounded batch queue (envQueue)
// plus the node's identity.
type inmemNode struct {
	id amcast.NodeID
	in *envQueue
}

// mailboxDepth bounds per-node mailboxes in envelopes; sends to a full
// mailbox block, providing natural backpressure.
const mailboxDepth = 1024

// NewInMemNet returns an empty in-memory network.
func NewInMemNet() *InMemNet {
	return &InMemNet{nodes: make(map[amcast.NodeID]*inmemNode)}
}

// AddHandler attaches a raw per-envelope handler (clients use this).
func (n *InMemNet) AddHandler(id amcast.NodeID, h func(env amcast.Envelope)) error {
	return n.addNode(id, func(envs []amcast.Envelope) {
		for _, env := range envs {
			h(env)
		}
	})
}

// AddBatchHandler attaches a raw batch handler; the node runtime
// (internal/runtime) registers itself this way.
func (n *InMemNet) AddBatchHandler(id amcast.NodeID, h BatchHandler) error {
	return n.addNode(id, h)
}

func (n *InMemNet) addNode(id amcast.NodeID, h BatchHandler) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return fmt.Errorf("transport: network closed")
	}
	if _, dup := n.nodes[id]; dup {
		return fmt.Errorf("transport: node %s already registered", id)
	}
	node := &inmemNode{id: id, in: newEnvQueue(mailboxDepth)}
	n.nodes[id] = node
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		for {
			envs := node.in.pop()
			if envs == nil {
				return // stopped and drained
			}
			h(envs)
		}
	}()
	return nil
}

// Send enqueues one envelope to the destination mailbox. Envelopes to
// unknown nodes are dropped (matching a network that loses packets to
// dead hosts); per-pair ordering follows channel FIFO semantics.
func (n *InMemNet) Send(from, to amcast.NodeID, env amcast.Envelope) {
	n.SendBatch(from, to, []amcast.Envelope{env})
}

// SendBatch enqueues a batch as one unit: one channel operation however
// many envelopes it carries. The callee owns the slice afterwards.
func (n *InMemNet) SendBatch(from, to amcast.NodeID, envs []amcast.Envelope) {
	if len(envs) == 0 {
		return
	}
	n.mu.RLock()
	node, ok := n.nodes[to]
	closed := n.closed
	n.mu.RUnlock()
	if !ok || closed {
		return
	}
	node.in.push(envs)
}

// Close stops all nodes and waits for their mailboxes to drain.
func (n *InMemNet) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	nodes := make([]*inmemNode, 0, len(n.nodes))
	for _, node := range n.nodes {
		nodes = append(nodes, node)
	}
	n.mu.Unlock()
	for _, node := range nodes {
		node.in.close()
	}
	n.wg.Wait()
}
