package deploy

import (
	"net"

	"flexcast/amcast"
	"flexcast/internal/runtime"
	"flexcast/internal/transport"
)

// InMem attaches groups to an in-memory network; send builds each
// node's outbound path (straight into the mailboxes, or through WAN
// delay links).
func InMem(nw *transport.InMemNet, send func(from amcast.NodeID) runtime.SendBatchFunc) Attach {
	return func(eng amcast.Engine, rc runtime.Config) (*runtime.Node, func(), error) {
		id := amcast.GroupNode(eng.Group())
		node := runtime.NewNode(eng, send(id), rc)
		if err := nw.AddBatchHandler(id, node.Submit); err != nil {
			node.Close()
			return nil, nil, err
		}
		return node, nil, nil
	}
}

// TCP attaches groups to TCP nodes; listen opens (or hands over) each
// group node's listener. The TCP node is built first and serves only
// once the runtime node it feeds exists, so no inbound frame can reach
// a node still being built.
func TCP(book transport.AddrBook, listen func(id amcast.NodeID) (net.Listener, error)) Attach {
	return func(eng amcast.Engine, rc runtime.Config) (*runtime.Node, func(), error) {
		id := amcast.GroupNode(eng.Group())
		ln, err := listen(id)
		if err != nil {
			return nil, nil, err
		}
		tn := transport.ListenerNode(id, ln, book)
		node := runtime.NewNode(eng, func(to amcast.NodeID, envs []amcast.Envelope) {
			// A failed send drops the batch silently: SendBatch retries a
			// broken connection once and then gives up, and frames already
			// written into a dying connection are lost with it. The
			// protocols assume reliable FIFO links, so this is a safety
			// risk (FlexCast advances its history-diff cursors past frames
			// that never arrive), not only a liveness one — see the
			// reliable-FIFO session layer item in ROADMAP.md.
			_ = tn.SendBatch(to, envs)
		}, rc)
		tn.Serve(node.Submit)
		return node, tn.Close, nil
	}
}
