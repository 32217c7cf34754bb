// Command flexclient drives a TCP deployment of flexnode processes with
// a closed-loop gTPC-C client and reports per-destination latency
// percentiles, mirroring the paper's measurement methodology (§5.3).
//
// Usage:
//
//	flexclient -client 0 -home 1 -protocol flexcast \
//	           -overlay 8,7,6,5,2,1,3,4,9,10,11,12 \
//	           -peers g1=...,g2=...,c0=:5000 -n 1000 -locality 0.95
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"sort"
	"sync"
	"time"

	"flexcast"
	"flexcast/amcast"
	"flexcast/internal/deploy"
	"flexcast/internal/gtpcc"
	"flexcast/internal/metrics"
	"flexcast/internal/transport"
)

func main() {
	var (
		clientIdx = flag.Int("client", 0, "client index (unique per client process)")
		home      = flag.Int("home", 1, "home warehouse/group id")
		protocol  = flag.String("protocol", "flexcast", "protocol: flexcast, skeen, hierarchical")
		overlayF  = flag.String("overlay", "", "comma-separated C-DAG rank order / group list")
		treeF     = flag.String("tree", "", "tree spec (hierarchical only; see flexnode -help)")
		peersF    = flag.String("peers", "", "comma-separated nodeid=host:port pairs")
		n         = flag.Int("n", 100, "number of transactions to issue")
		locality  = flag.Float64("locality", 0.95, "gTPC-C locality rate")
		seed      = flag.Int64("seed", 1, "random seed")
		timeout   = flag.Duration("timeout", 30*time.Second, "per-transaction timeout")
	)
	flag.Parse()
	if err := run(*clientIdx, *home, *protocol, *overlayF, *treeF, *peersF, *n, *locality, *seed, *timeout); err != nil {
		log.Fatalf("flexclient: %v", err)
	}
}

func run(clientIdx, home int, protocol, overlayF, treeF, peersF string,
	n int, locality float64, seed int64, timeout time.Duration) error {
	book, err := deploy.ParsePeers(peersF)
	if err != nil {
		return err
	}
	proto, err := deploy.ResolveFlags(protocol, overlayF, treeF)
	if err != nil {
		return err
	}
	homeG := flexcast.GroupID(home)
	gen, err := gtpcc.New(gtpcc.Config{
		Home:       homeG,
		Nearest:    proto.Nearest(homeG),
		Locality:   locality,
		GlobalOnly: true,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		return err
	}

	id := amcast.ClientNode(clientIdx)
	var (
		mu      sync.Mutex
		pending map[flexcast.GroupID]bool
		replies []time.Duration
		started time.Time
		doneCh  chan struct{}
	)
	node, err := transport.NewTCPNode(id, book, func(env flexcast.Envelope) {
		if env.Kind != amcast.KindReply {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		if pending == nil || !pending[env.From.Group()] {
			return
		}
		delete(pending, env.From.Group())
		replies = append(replies, time.Since(started))
		if len(pending) == 0 {
			close(doneCh)
		}
	})
	if err != nil {
		return err
	}
	defer node.Close()

	// Per-destination latencies go into the exact-percentile histogram
	// (internal/metrics) — bounded memory however long the run.
	perDest := make([]*metrics.Histogram, 3)
	for i := range perDest {
		perDest[i] = metrics.NewHistogram()
	}
	completed := 0
	for i := 0; i < n; i++ {
		tx := gen.Next()
		m := flexcast.Message{
			ID:      amcast.NewMsgID(clientIdx, uint64(i+1)),
			Sender:  id,
			Dst:     tx.Dst,
			Payload: make([]byte, tx.PayloadSize),
		}
		mu.Lock()
		pending = make(map[flexcast.GroupID]bool, len(m.Dst))
		for _, g := range m.Dst {
			pending[g] = true
		}
		replies = replies[:0]
		started = time.Now()
		doneCh = make(chan struct{})
		done := doneCh
		mu.Unlock()

		for _, to := range proto.Route(m) {
			if err := node.Send(to, flexcast.Envelope{Kind: amcast.KindRequest, From: id, Msg: m}); err != nil {
				return fmt.Errorf("tx %d: %w", i, err)
			}
		}
		// Stopped on completion, the timer is released at once (a
		// time.After timer would stay live for the whole timeout).
		timer := time.NewTimer(timeout)
		select {
		case <-done:
			timer.Stop()
			mu.Lock()
			sort.Slice(replies, func(a, b int) bool { return replies[a] < replies[b] })
			for k, d := range replies {
				if k < 3 {
					perDest[k].Record(uint64(max(d.Microseconds(), 0)))
				}
			}
			mu.Unlock()
			completed++
		case <-timer.C:
			return fmt.Errorf("tx %d (%s to %v) timed out", i, m.ID, m.Dst)
		}
	}

	fmt.Printf("client %d: %d/%d transactions completed\n", clientIdx, completed, n)
	fmt.Println("dest   90p      95p      99p   (ms)")
	for k, rec := range perDest {
		if rec.Count() == 0 {
			continue
		}
		fmt.Printf("%3d  %s\n", k+1, rec.PercentileRow(1000))
	}
	return nil
}
