// Command perfbench is the repository's benchmark. For one workload it
// runs loadgen.Run in fresh processes and prints the end-to-end metrics
// (--trace 0), or runs it once untraced, once with the lifecycle tracer
// on, and replays the workload's seeded stream through timed layers to
// print the per-layer metrics (--trace 1). It checks every run's outputs
// and ends its standard output with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": u}, ...}}
//
// Run it from the repository root through run.py, which builds it:
//
//	python3 perfbench/run.py --workload gtpcc-inmem-closed --seed 1 --seconds 20 --trace 0
//
// NOTES.md says what each metric measures and what it does not.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"time"
)

// metricDef declares one reported metric; BENCHMARK.json is generated
// from these tables (-spec) and spec_test.go keeps the two identical.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd bounds are the share of the parent's median a metric may
// lose. All sit at the largest bound allowed: on the shared 2-vCPU VM
// this was tuned on, the quartile distance over ten seeds stayed under
// 10 % of the median in a quiet period but reached 17 % for inmem
// throughput, and 33 % for p99, while other guests were busy (NOTES.md,
// "Spread").
var endToEnd = []metricDef{
	{"throughput_tx_s", "tx/s", "higher", 0.25},
	{"latency_p50_us", "us", "lower", 0.25},
	{"latency_p99_us", "us", "lower", 0.25},
	{"cpu_us_per_tx", "us", "lower", 0.25},
	{"rss_peak_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

var perLayer = []metricDef{
	{Name: "core.step_ns_per_env", Unit: "ns", Better: "lower"},
	{Name: "core.allocs_per_env", Unit: "count", Better: "lower"},
	{Name: "core.out_env_per_tx", Unit: "count", Better: "lower"},
	{Name: "core.history_nodes_max", Unit: "count", Better: "lower"},
	{Name: "core.pruned_per_flush", Unit: "count", Better: "higher"},
	{Name: "core.ordering_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "store.apply_ns_per_tx", Unit: "ns", Better: "lower"},
	{Name: "store.execute_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "durable.append_ns_per_env", Unit: "ns", Better: "lower"},
	{Name: "durable.fsyncs_per_tx", Unit: "count", Better: "lower"},
	{Name: "durable.fsync_p99_us", Unit: "us", Better: "lower"},
	{Name: "durable.snapshot_write_p50_us", Unit: "us", Better: "lower"},
	{Name: "codec.encode_ns_per_env", Unit: "ns", Better: "lower"},
	{Name: "codec.decode_ns_per_env", Unit: "ns", Better: "lower"},
	{Name: "codec.bytes_per_tx", Unit: "B", Better: "lower"},
	{Name: "runtime.batcher_ns_per_env", Unit: "ns", Better: "lower"},
	{Name: "runtime.queue_wait_p99_ns", Unit: "ns", Better: "lower"},
	{Name: "runtime.flush_wait_p99_ns", Unit: "ns", Better: "lower"},
	{Name: "runtime.avg_batch", Unit: "count", Better: "higher"},
	{Name: "runtime.backpressure_stall_ms", Unit: "ms", Better: "lower"},
	{Name: "transport.env_per_tx", Unit: "count", Better: "lower"},
	{Name: "transport.ingress_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.reply_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "gc.cpu_frac", Unit: "fraction", Better: "lower"},
	{Name: "gc.alloc_bytes_per_tx", Unit: "B", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "fraction", Better: "lower"},
	{Name: "replay.unattributed_us_per_tx", Unit: "us", Better: "lower"},
}

// report is the benchmark's final JSON line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints v as one JSON line on standard output.
func emit(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(b))
}

func main() {
	var (
		wlName  = flag.String("workload", "", "workload name (see BENCHMARK.json)")
		seed    = flag.Int64("seed", 1, "workload seed (>= 0)")
		seconds = flag.Float64("seconds", runSeconds, "measurement window in seconds (--trace 1 splits it between an untraced and a traced run)")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
		scratch = flag.String("scratch", ".bench_build/tmp", "scratch directory for run state (WAL, snapshots)")
		spec    = flag.Bool("spec", false, "print BENCHMARK.json and exit")
		// Child modes: one run in this process, result as a JSON line.
		child      = flag.String("child", "", "internal: live, setup, traced or replay")
		window     = flag.Duration("window", 0, "internal: child measurement window")
		flushEvery = flag.Int("flush-every-tx", 0, "internal: replay flush period in committed transactions")
	)
	flag.Parse()
	if *spec {
		emitSpec(os.Stdout)
		return
	}
	w, err := findWorkload(*wlName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *seed < 0 || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --seed >= 0, --seconds > 0 and --trace 0 or 1")
		os.Exit(2)
	}
	switch *child {
	case "live", "setup", "traced":
		liveMain(liveSpec{workload: w, seed: *seed, window: *window,
			traced: *child == "traced", setupOnly: *child == "setup", tmp: *scratch})
		return
	case "replay":
		emit(runReplay(w, *seed, *flushEvery, *scratch))
		return
	case "":
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown child mode %q\n", *child)
		os.Exit(2)
	}

	o := &orchestrator{w: w, seed: *seed, scratch: *scratch}
	total := time.Duration(*seconds * float64(time.Second))
	var rep report
	if *traced == 1 {
		rep = o.perLayer(total)
	} else {
		rep = o.endToEnd(total)
	}
	for name, v := range rep.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s is not finite\n", name)
			v.Value = 0
			rep.Metrics[name] = v
			rep.Correct = false
		}
	}
	emit(rep)
	if !rep.Correct {
		os.Exit(1)
	}
}
