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
	"strconv"
	"strings"
	"sync"
	"time"

	"flexcast"
	"flexcast/amcast"
	"flexcast/internal/gtpcc"
	"flexcast/internal/metrics"
	"flexcast/internal/transport"
	"flexcast/internal/wan"
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
	book, err := parsePeers(peersF)
	if err != nil {
		return err
	}
	route, groups, err := buildRoute(protocol, overlayF, treeF)
	if err != nil {
		return err
	}
	homeG := flexcast.GroupID(home)
	gen, err := gtpcc.New(gtpcc.Config{
		Home:       homeG,
		Nearest:    nearestOf(homeG, groups),
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

		for _, to := range route(m) {
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

func buildRoute(protocol, overlayF, treeF string) (func(m flexcast.Message) []flexcast.NodeID, []flexcast.GroupID, error) {
	switch protocol {
	case "flexcast":
		order, err := parseGroups(overlayF)
		if err != nil {
			return nil, nil, err
		}
		ov, err := flexcast.NewOverlay(order)
		if err != nil {
			return nil, nil, err
		}
		return func(m flexcast.Message) []flexcast.NodeID {
			return []flexcast.NodeID{flexcast.FlexCastEntry(ov, m)}
		}, ov.Groups(), nil
	case "skeen":
		order, err := parseGroups(overlayF)
		if err != nil {
			return nil, nil, err
		}
		return flexcast.SkeenEntry, order, nil
	case "hierarchical":
		tree, err := parseTree(treeF)
		if err != nil {
			return nil, nil, err
		}
		return func(m flexcast.Message) []flexcast.NodeID {
			return []flexcast.NodeID{flexcast.HierarchicalEntry(tree, m)}
		}, tree.Groups(), nil
	default:
		return nil, nil, fmt.Errorf("unknown protocol %q", protocol)
	}
}

// nearestOf orders the other groups by WAN distance when the deployment
// uses the standard 12 regions, and by id otherwise.
func nearestOf(home flexcast.GroupID, groups []flexcast.GroupID) []flexcast.GroupID {
	if len(groups) == wan.NumRegions && int(home) >= 1 && int(home) <= wan.NumRegions {
		return wan.NearestOrder(home)
	}
	var out []flexcast.GroupID
	for _, g := range groups {
		if g != home {
			out = append(out, g)
		}
	}
	return out
}

// The flag grammars are shared with flexnode.

func parsePeers(s string) (transport.AddrBook, error) {
	book := make(transport.AddrBook)
	if s == "" {
		return nil, fmt.Errorf("missing -peers")
	}
	for _, pair := range strings.Split(s, ",") {
		kv := strings.SplitN(pair, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad peer %q", pair)
		}
		id, err := parseNodeID(kv[0])
		if err != nil {
			return nil, err
		}
		book[id] = kv[1]
	}
	return book, nil
}

func parseNodeID(s string) (flexcast.NodeID, error) {
	if len(s) < 2 {
		return 0, fmt.Errorf("bad node id %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil {
		return 0, fmt.Errorf("bad node id %q: %w", s, err)
	}
	switch s[0] {
	case 'g':
		return amcast.GroupNode(flexcast.GroupID(n)), nil
	case 'c':
		return amcast.ClientNode(n), nil
	default:
		return 0, fmt.Errorf("bad node id %q (want gN or cN)", s)
	}
}

func parseGroups(s string) ([]flexcast.GroupID, error) {
	if s == "" {
		return nil, fmt.Errorf("missing -overlay")
	}
	var out []flexcast.GroupID
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad group %q: %w", part, err)
		}
		out = append(out, flexcast.GroupID(n))
	}
	return out, nil
}

func parseTree(s string) (*flexcast.Tree, error) {
	if s == "" {
		return nil, fmt.Errorf("missing -tree")
	}
	head := strings.SplitN(s, ":", 2)
	if len(head) != 2 {
		return nil, fmt.Errorf("tree must be root:edges")
	}
	root, err := strconv.Atoi(head[0])
	if err != nil {
		return nil, fmt.Errorf("bad tree root %q: %w", head[0], err)
	}
	children := make(map[flexcast.GroupID][]flexcast.GroupID)
	for _, edge := range strings.Split(head[1], ",") {
		kv := strings.SplitN(edge, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad tree edge %q", edge)
		}
		p, err := strconv.Atoi(kv[0])
		if err != nil {
			return nil, fmt.Errorf("bad tree parent %q: %w", kv[0], err)
		}
		for _, c := range strings.Split(kv[1], "|") {
			cn, err := strconv.Atoi(c)
			if err != nil {
				return nil, fmt.Errorf("bad tree child %q: %w", c, err)
			}
			children[flexcast.GroupID(p)] = append(children[flexcast.GroupID(p)], flexcast.GroupID(cn))
		}
	}
	return flexcast.NewTree(flexcast.GroupID(root), children)
}
