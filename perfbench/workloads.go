package main

import (
	"fmt"
	"time"

	"flexcast/internal/loadgen"
)

// workload is one benchmark input: a loadgen configuration plus how the
// benchmark runs it. Every workload is FlexCast on the paper's 12
// groups and O1 overlay, with loadgen's default flush period (500 ms)
// and batch cap (64), and 2 client processes generating load inside the
// measured process.
type workload struct {
	name string
	why  string
	// warmup precedes every measurement window.
	warmup time.Duration
	// runs is the number of measured runs an end-to-end invocation
	// splits its window between (0 means 1); each end-to-end metric is
	// their median, so a host stall that hits one run does not move it.
	runs int
	// Replay shape: committed transactions replayed and concurrent
	// transactions kept in flight (the closed loop's session count; for
	// the open loop, offered rate × p50 latency by Little's law).
	replayTx       int
	replaySessions int
	cfg            func(seed int64) loadgen.Config
}

const (
	clients = 2
	workers = 32
)

// base is the configuration every workload shares. The benchmark seed n
// becomes loadgen seed n+1: loadgen reads seed 0 as "default 1".
func base(seed int64) loadgen.Config {
	return loadgen.Config{
		Protocol:    "flexcast",
		Groups:      12,
		Clients:     clients,
		Workers:     workers,
		Seed:        seed + 1,
		TraceSample: -1, // loadgen traces by default; measured runs must not
	}
}

var workloads = []workload{
	{
		name: "gtpcc-inmem-closed",
		why:  "CPU-bound gTPC-C with execution: engine history, store apply and runtime queues do the work, no transport delay or codec",
		// The window sits past the within-run throughput fall at ≈20 s.
		warmup:   22 * time.Second,
		replayTx: 40000, replaySessions: clients * workers,
		cfg: func(seed int64) loadgen.Config {
			c := base(seed)
			c.Transport = "inmem"
			c.Execute = true
			c.Locality = 0.95
			return c
		},
	},
	{
		name:   "wan-global-open",
		why:    "paper Fig. 5 shape: multi-group only over injected WAN delays at a fixed open-loop rate; exercises history merge/diff",
		warmup: 2 * time.Second,
		// Its p99 is the injected delay plus how late the delay links'
		// goroutines wake, so host CPU steal lifts it: by a fifth at
		// 8 % steal and by three fifths at 19 % over a 20 s window.
		// Seven runs of a seventh of the window (8.5k samples each) and
		// their median: a stall must hit four of them to move it.
		runs:     7,
		replayTx: 24000, replaySessions: 42,
		cfg: func(seed int64) loadgen.Config {
			c := base(seed)
			c.Transport = "wan"
			c.GlobalOnly = true
			c.Rate = 1500
			return c
		},
	},
	{
		name:     "gtpcc-tcp-durable-closed",
		why:      "the only workload crossing the codec, loopback sockets and the WAL with fsync, snapshots and verified crash recovery",
		warmup:   5 * time.Second,
		replayTx: 12000, replaySessions: clients * workers,
		cfg: func(seed int64) loadgen.Config {
			c := base(seed)
			c.Transport = "tcp"
			c.Execute = true
			c.Durable = true
			c.Locality = 0.95
			return c
		},
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
