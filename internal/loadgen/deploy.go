package loadgen

import (
	"fmt"
	"net"

	"flexcast/amcast"
	"flexcast/internal/deploy"
	"flexcast/internal/gtpcc"
	"flexcast/internal/runtime"
	"flexcast/internal/transport"
)

// deployment is a run's running group nodes plus a close function
// tearing everything down, transport and clients included.
type deployment struct {
	*deploy.Deployment
	close func()
}

// start builds the group servers and client processes on the selected
// transport and publishes the deployment as r.dep.
func start(r *run) (*deployment, []*clientProc, error) {
	cfg := r.cfg
	clients := make([]*clientProc, cfg.Clients)
	for i := range clients {
		clients[i] = &clientProc{
			idx:      i,
			id:       amcast.ClientNode(i),
			out:      make(chan amcast.Message, cfg.Workers),
			inflight: make(map[amcast.MsgID]*txState),
			prefix:   make(amcast.PrefixTracker),
			run:      r,
		}
		if cfg.Sessions > 0 {
			clients[i].sessions = newSessions(i, cfg.Sessions)
			clients[i].sessBase = clients[i].sessions[0].id
		}
	}
	var err error
	switch cfg.Transport {
	case "tcp":
		r.dep, err = deployTCP(r, clients)
	default:
		r.dep, err = deployInMem(r, clients)
	}
	return r.dep, clients, err
}

// nodeConfig is a group node's runtime configuration plus, on executing
// deployments, the KindRead service: remote reads are answered directly
// against the group's executor at the requested barrier — TryRead,
// because a barrier derived from observed replies is always already
// applied at the serving node (the watermark advances before replies
// leave), so a miss is a broken contract and surfaces as a refusal the
// client fails on. Reads are not inputs, so they bypass the durable log.
func (r *run) nodeConfig(grp *deploy.Group) runtime.Config {
	rc := runtime.Config{
		MaxBatch:      r.cfg.MaxBatch,
		FlushInterval: r.cfg.FlushInterval,
		Tracer:        r.tracer,
	}
	if r.cfg.Adaptive {
		// The zero AdaptiveConfig fills to the full range: floor 1
		// envelope / 50µs, ceiling the static knobs above. Adaptivity is
		// server-side only — client batchers coalesce their own sessions
		// and flush when the queue runs dry, which is already adaptive.
		rc.Adaptive = &runtime.AdaptiveConfig{}
	}
	ex := grp.Exec
	if ex == nil {
		return rc
	}
	from := amcast.GroupNode(grp.ID)
	rc.ReadHandler = func(env amcast.Envelope) amcast.Envelope {
		reply := amcast.Envelope{
			Kind:   amcast.KindReply,
			From:   from,
			Msg:    env.Msg.Header(),
			Result: amcast.ResultRefused,
		}
		tx, err := gtpcc.DecodeTx(env.Msg.Payload)
		if err != nil {
			return reply
		}
		res, err := ex.TryRead(tx, env.TS)
		if err != nil {
			return reply
		}
		reply.Result = amcast.ResultCommitted
		reply.Watermark = res.Watermark
		reply.Value = res.Value
		return reply
	}
	return rc
}

// deployInMem also serves the "wan" transport: the same in-memory
// deployment with every link routed through a delayNet applying the
// paper's inter-region one-way latencies.
func deployInMem(r *run, clients []*clientProc) (*deployment, error) {
	cfg := r.cfg
	nw := transport.NewInMemNet()
	var dn *delayNet
	if cfg.Transport == "wan" {
		dn = newDelayNet(r.proto.Groups)
	}
	closeNet := func() {
		if dn != nil {
			dn.close()
		}
		nw.Close()
	}
	// sendVia builds a node's send function: straight into the mailbox,
	// or through the WAN delay queue of the (from, to) link.
	sendVia := func(from amcast.NodeID) runtime.SendBatchFunc {
		if dn == nil {
			return func(to amcast.NodeID, envs []amcast.Envelope) { nw.SendBatch(from, to, envs) }
		}
		return func(to amcast.NodeID, envs []amcast.Envelope) {
			dn.send(from, to, envs, func(to amcast.NodeID, envs []amcast.Envelope) {
				nw.SendBatch(from, to, envs)
			})
		}
	}
	d, err := deploy.Start(r.stack(), nil, deploy.InMem(nw, sendVia), r.nodeConfig)
	if err != nil {
		closeNet()
		return nil, err
	}
	dep := &deployment{Deployment: d, close: func() {
		closeNet()
		d.Close()
	}}
	for _, c := range clients {
		c.batcher = runtime.NewBatcher(sendVia(c.id), cfg.MaxBatch)
		if err := nw.AddBatchHandler(c.id, c.onReplies); err != nil {
			dep.close()
			return nil, err
		}
	}
	return dep, nil
}

// deployTCP runs the whole deployment over loopback TCP: one listening
// node per group and per client process, so every envelope crosses the
// real codec, framing and kernel socket path.
func deployTCP(r *run, clients []*clientProc) (*deployment, error) {
	cfg := r.cfg
	groups := r.proto.Groups
	book := make(transport.AddrBook, len(groups)+len(clients))
	var ids []amcast.NodeID
	for _, g := range groups {
		ids = append(ids, amcast.GroupNode(g))
	}
	for _, c := range clients {
		ids = append(ids, c.id)
	}
	// Open every node's loopback listener before anyone dials: the book
	// is complete before the first node starts, and no port is released
	// between choosing it and listening on it.
	lns := make(map[amcast.NodeID]net.Listener, len(ids))
	closeUnused := func() {
		for _, ln := range lns {
			ln.Close()
		}
	}
	for _, id := range ids {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeUnused()
			return nil, fmt.Errorf("loadgen: listen: %w", err)
		}
		lns[id] = ln
		book[id] = ln.Addr().String()
	}
	// take hands id's listener to its node.
	take := func(id amcast.NodeID) (net.Listener, error) {
		ln := lns[id]
		delete(lns, id)
		return ln, nil
	}

	d, err := deploy.Start(r.stack(), nil, deploy.TCP(book, take), r.nodeConfig)
	if err != nil {
		closeUnused()
		return nil, err
	}
	var clientNodes []*transport.TCPNode
	dep := &deployment{Deployment: d, close: func() {
		for _, tn := range clientNodes {
			tn.Close()
		}
		d.Close()
	}}
	for _, c := range clients {
		ln, _ := take(c.id)
		tn := transport.ListenerNode(c.id, ln, book)
		tn.Serve(c.onReplies)
		clientNodes = append(clientNodes, tn)
		c.batcher = runtime.NewBatcher(func(to amcast.NodeID, envs []amcast.Envelope) {
			_ = tn.SendBatch(to, envs) // a failed send drops the batch, as in deploy.TCP
		}, cfg.MaxBatch)
	}
	return dep, nil
}
