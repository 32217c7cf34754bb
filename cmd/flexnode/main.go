// Command flexnode runs one protocol group as a TCP server — one process
// per group, as in the paper's CloudLab deployment.
//
// Usage:
//
//	flexnode -group 2 -protocol flexcast -overlay 8,7,6,5,2,1,3,4,9,10,11,12 \
//	         -peers g1=host1:4001,g2=host2:4002,...,c0=client:5000
//
// The overlay flag gives the C-DAG rank order (FlexCast), the full group
// list (skeen), or is replaced by -tree for the hierarchical protocol.
// The peers flag must name every group (gN=addr) and every client
// (cN=addr) that will participate.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"flexcast"
	"flexcast/internal/deploy"
	"flexcast/internal/runtime"
	"flexcast/internal/telemetry"
	"flexcast/internal/transport"
)

func main() {
	var (
		group    = flag.Int("group", 0, "this node's group id (1-based)")
		protocol = flag.String("protocol", "flexcast", "protocol: flexcast, skeen, hierarchical")
		overlayF = flag.String("overlay", "", "comma-separated C-DAG rank order / group list")
		treeF    = flag.String("tree", "", "tree as root:parent=child|child,parent=child (hierarchical only)")
		peersF   = flag.String("peers", "", "comma-separated nodeid=host:port pairs (g1=..., c0=...)")
		batch    = flag.Int("batch", 64, "max envelopes per runtime batch (1 disables batching)")
		flush    = flag.Duration("flush-interval", 500*time.Microsecond, "batch flush period")
		telem    = flag.String("telemetry", "", "serve /metrics (JSON) and /debug/pprof on this address (e.g. 127.0.0.1:8090)")
		verbose  = flag.Bool("v", false, "log every delivery")
	)
	flag.Parse()
	if err := run(*group, *protocol, *overlayF, *treeF, *peersF, *batch, *flush, *telem, *verbose); err != nil {
		log.Fatalf("flexnode: %v", err)
	}
}

func run(group int, protocol, overlayF, treeF, peersF string, batch int, flush time.Duration, telem string, verbose bool) error {
	if group <= 0 {
		return fmt.Errorf("missing -group")
	}
	g := flexcast.GroupID(group)
	book, err := deploy.ParsePeers(peersF)
	if err != nil {
		return err
	}
	proto, err := deploy.ResolveFlags(protocol, overlayF, treeF)
	if err != nil {
		return err
	}

	onDeliver := func(d flexcast.Delivery) {
		if verbose {
			log.Printf("group %d delivered %s seq=%d dst=%v payload=%dB",
				d.Group, d.Msg.ID, d.Seq, d.Msg.Dst, len(d.Msg.Payload))
		}
	}
	// The batched node runtime over TCP: inbound frames (single or batch)
	// drain through the engine's batch fast path; outputs leave as batch
	// frames per destination.
	listen := func(id flexcast.NodeID) (net.Listener, error) { return transport.Listen(id, book) }
	dep, err := deploy.Start(&deploy.Stack{Proto: proto}, []flexcast.GroupID{g}, deploy.TCP(book, listen),
		func(*deploy.Group) runtime.Config {
			return runtime.Config{MaxBatch: batch, FlushInterval: flush, OnDeliver: onDeliver}
		})
	if err != nil {
		return err
	}
	defer dep.Close()
	rt := dep.Nodes[0]
	log.Printf("flexnode: group %d (%s) listening on %s (batch=%d)", group, protocol, book[flexcast.GroupNode(g)], batch)

	if telem != "" {
		reg := telemetry.Default
		reg.RegisterGauge("queue_depth", func() float64 { return float64(rt.QueueLen()) })
		reg.RegisterCounter("backpressure_stalls", func() uint64 { s, _ := rt.Backpressure(); return s })
		reg.RegisterCounter("backpressure_stall_ns", func() uint64 { _, ns := rt.Backpressure(); return ns })
		reg.RegisterCounter("batch_size_flushes", func() uint64 { return rt.Stats().SizeFlushes })
		reg.RegisterCounter("batch_chunk_flushes", func() uint64 { return rt.Stats().ChunkFlushes })
		reg.RegisterCounter("batch_timer_flushes", func() uint64 { return rt.Stats().TimerFlushes })
		reg.RegisterGauge("batch_avg", func() float64 { return rt.Stats().AvgBatch() })
		srv, err := telemetry.Serve(telem, reg)
		if err != nil {
			return fmt.Errorf("telemetry: %w", err)
		}
		defer srv.Close()
		log.Printf("flexnode: telemetry on http://%s/metrics (pprof under /debug/pprof/)", srv.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("flexnode: shutting down")
	return nil
}
