package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childTimeout bounds one child process; the invocation as a whole must
// end within 180 s.
const childTimeout = 150 * time.Second

// orchestrator runs one invocation's children, each a fresh process:
// the durable and store histograms and telemetry.Default are process-
// global and never reset, so runs sharing a process would read each
// other's samples.
type orchestrator struct {
	w       *workload
	seed    int64
	scratch string
	n       int
	retries int // deployments retried after a port collision
}

// spawn runs this binary in a child mode and decodes the JSON line it
// prints last into out. Its scratch directory is removed afterwards.
func (o *orchestrator) spawn(mode string, out any, extra ...string) error {
	o.n++
	tmp, err := filepath.Abs(filepath.Join(o.scratch, fmt.Sprintf("%d-%d", os.Getpid(), o.n)))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	self, err := os.Executable()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	args := append([]string{"-child", mode, "-workload", o.w.name,
		"-seed", strconv.FormatInt(o.seed, 10), "-scratch", tmp}, extra...)
	cmd := exec.CommandContext(ctx, self, args...)
	// The child dies with this process, so an interrupted invocation
	// leaves nothing running.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Env = append(os.Environ(), "TMPDIR="+tmp)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	runErr := cmd.Run()
	line := lastLine(stdout.Bytes())
	if len(line) == 0 {
		if runErr == nil {
			runErr = fmt.Errorf("no output")
		}
		return fmt.Errorf("%s child: %w", mode, runErr)
	}
	if err := json.Unmarshal(line, out); err != nil {
		return fmt.Errorf("%s child output: %w", mode, err)
	}
	return runErr
}

func lastLine(b []byte) []byte {
	b = bytes.TrimSpace(b)
	return b[bytes.LastIndexByte(b, '\n')+1:]
}

// live runs one measured (or setup-only) live child and checks it. A
// run whose deployment hit a port collision is retried, up to three
// times (see portCollision).
func (o *orchestrator) live(mode string, window time.Duration) (liveResult, error) {
	res, err := o.liveOnce(mode, window)
	for retry := 0; retry < 3 && err != nil && portCollision(res.Err); retry++ {
		o.retries++
		fmt.Fprintf(os.Stderr, "perfbench: %s: deployment port collision, retrying: %v\n", o.w.name, err)
		res, err = o.liveOnce(mode, window)
	}
	return res, err
}

// portCollision reports a deployment that failed to listen on its
// loopback port. loadgen reserves one port per node by listening on :0
// and closing at once, so the kernel can hand two nodes the same port;
// about 1% of tcp deployments hit it. That is a defect of the load
// generator's set-up, not of the system measured, and it is retried and
// reported rather than counted as a failed operation.
func portCollision(msg string) bool {
	return strings.Contains(msg, "bind: address already in use")
}

func (o *orchestrator) printRetries() {
	if o.retries > 0 {
		fmt.Printf("  deployments retried after a port collision: %d\n", o.retries)
	}
}

func (o *orchestrator) liveOnce(mode string, window time.Duration) (liveResult, error) {
	var res liveResult
	err := o.spawn(mode, &res, "-window", window.String())
	if err == nil && res.Err != "" {
		err = fmt.Errorf("%s", res.Err)
	}
	if err == nil && mode != "setup" {
		err = checkLive(res)
	}
	if err != nil && res.Err == "" {
		res.Err = err.Error()
	}
	return res, err
}

// checkLive applies the output checks loadgen.Run does not: a measured
// window must hold enough samples to report its p99.
func checkLive(r liveResult) error {
	if r.Completed == 0 || r.CPUWindowNs <= 0 {
		return fmt.Errorf("empty measurement window (completed %d, cpu %.0fns)", r.Completed, r.CPUWindowNs)
	}
	if !percentileSupported(99, r.LatencySamples) {
		return fmt.Errorf("%d latency samples cannot support a p99", r.LatencySamples)
	}
	return nil
}

// row prints one human-readable metric line (they precede the JSON
// line).
func row(name string, r reading) {
	fmt.Printf("  %-32s %s\n", name, r)
}

// setupProbes is the number of setup-probe processes per end-to-end
// invocation, each timing one deployment; setup_s is their median.
const setupProbes = 61

// endToEnd measures the workload's end-to-end metrics: setup probes,
// then the workload's measured runs, which share the invocation's
// seconds; each is a fresh process and each metric is the runs' median.
func (o *orchestrator) endToEnd(window time.Duration) report {
	w := o.w
	rep := report{Correct: true, Metrics: map[string]metricValue{}}
	// Setup first: the measured run leaves the disk busy writing back
	// its WAL, which the durable workload's setup would wait on.
	var setups []float64
	for i := 0; i < setupProbes; i++ {
		probe, err := o.live("setup", 0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s setup probe failed: %v\n", w.name, err)
			rep.Correct = false
			rep.Attempted, rep.Failed = rep.Attempted+1, rep.Failed+1
			continue
		}
		setups = append(setups, probe.SetupS)
	}
	runs := max(w.runs, 1)
	var measured []map[string]reading
	var steal []float64
	var perRun []string
	for i := 0; i < runs; i++ {
		r, err := o.live("live", window/time.Duration(runs))
		a, f := tally(r.Issued, r.Shed, err != nil)
		rep.Attempted, rep.Failed = rep.Attempted+a, rep.Failed+f
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s run %d failed: %v\n", w.name, i+1, err)
			rep.Correct = false
			continue
		}
		m := map[string]reading{
			"throughput_tx_s": {r.ThroughputTxS, "tx/s", 0},
			"latency_p50_us":  {r.LatencyP50Us, "us", r.LatencySamples},
			"latency_p99_us":  {r.LatencyP99Us, "us", r.LatencySamples},
			"cpu_us_per_tx":   {r.CPUWindowNs / 1e3 / float64(r.Completed), "us", r.Completed},
			"rss_peak_mb":     {r.RSSPeakMB, "MB", 0},
		}
		measured = append(measured, m)
		steal = append(steal, r.StealFrac)
		perRun = append(perRun, fmt.Sprintf("  run %d: %.6g tx/s, p50 %.6g us, p99 %.6g us, %.6g us cpu/tx, %.1f%% stolen",
			i+1, m["throughput_tx_s"].Value, m["latency_p50_us"].Value, m["latency_p99_us"].Value,
			m["cpu_us_per_tx"].Value, 100*r.StealFrac))
	}
	values := medianReadings(measured)
	values["setup_s"] = reading{median(setups), "s", uint64(len(setups))}

	cfg := w.cfg(o.seed)
	fmt.Printf("%s seed %d: %v window split over %d runs, each after %v warm-up, metrics their median; setup median of %d probes\n",
		w.name, o.seed, window, len(measured), w.warmup, len(setups))
	for _, m := range endToEnd {
		v, ok := values[m.Name]
		if !ok {
			v = reading{math.NaN(), m.Unit, 0}
		}
		row(m.Name, v)
		rep.Metrics[m.Name] = metricValue{v.Value, m.Unit}
	}
	row("fail_frac", reading{failFrac(rep.Attempted, rep.Failed), "fraction", rep.Attempted})
	fmt.Printf("  host CPU stolen by other guests during the windows (median): %.1f%%\n", 100*median(steal))
	if runs > 1 {
		fmt.Println(strings.Join(perRun, "\n"))
	}
	if cfg.Rate > 0 {
		offered := cfg.Rate * float64(cfg.Clients)
		fmt.Printf("  open loop: offered %.0f tx/s, completed %.4g%% of it in the window\n",
			offered, 100*values["throughput_tx_s"].Value/offered)
	}
	o.printRetries()
	return rep
}

// perLayer measures the workload's per-layer metrics: one untraced and
// one traced live run sharing the invocation's seconds, then the replay.
func (o *orchestrator) perLayer(total time.Duration) report {
	w := o.w
	rep := report{Correct: true, Metrics: map[string]metricValue{}}
	fails := func(what string, err error) {
		fmt.Fprintf(os.Stderr, "perfbench: %s %s failed: %v\n", w.name, what, err)
		rep.Correct = false
	}
	window := total / 2
	base, err := o.live("live", window)
	a, f := tally(base.Issued, base.Shed, err != nil)
	rep.Attempted, rep.Failed = rep.Attempted+a, rep.Failed+f
	if err != nil {
		fails("untraced run", err)
	}
	tr, err := o.live("traced", window)
	a, f = tally(tr.Issued, tr.Shed, err != nil)
	rep.Attempted, rep.Failed = rep.Attempted+a, rep.Failed+f
	if err != nil {
		fails("traced run", err)
	}
	// The replay flushes as often as the live system did: every
	// throughput × flush-every (500 ms) transactions, rounded to 100.
	flushEvery := int(math.Max(1, math.Round(base.ThroughputTxS*0.5/100))) * 100
	var rp replayResult
	if err := o.spawn("replay", &rp, "-flush-every-tx", strconv.Itoa(flushEvery)); err != nil {
		fails("replay", err)
	} else if rp.Err != "" {
		fails("replay", fmt.Errorf("%s", rp.Err))
	}
	rep.Attempted += rp.Committed
	if rp.Err != "" {
		rep.Failed += rp.Committed
	}

	values := layerValues(w, base, tr, rp)
	fmt.Printf("%s seed %d: untraced and traced runs of %v after %v warm-up; replay of %d tx, %d sessions, flush every %d tx (%d flushes), %.1fs\n",
		w.name, o.seed, window, w.warmup, rp.Committed, rp.Sessions, rp.FlushEvery, rp.Flushes, rp.WallS)
	for _, m := range perLayer {
		row(m.Name, values[m.Name])
		rep.Metrics[m.Name] = metricValue{values[m.Name].Value, m.Unit}
	}
	fmt.Printf("  reference: untraced %.0f tx/s, cpu %.2f us/tx; traced %.0f tx/s\n",
		base.ThroughputTxS, base.CPUWindowNs/1e3/float64(base.Completed), tr.ThroughputTxS)
	if values["replay.unattributed_us_per_tx"].Value < 0 {
		fmt.Println("  note: the replay's layer self time exceeds the live CPU per transaction")
	}
	o.printRetries()
	printSeries(tr)
	return rep
}

// layerValues derives the per-layer metrics from the untraced run, the
// traced run and the replay. Stage percentiles carry their sample
// counts; a layer the live workload does not run reads 0.
func layerValues(w *workload, base, tr liveResult, rp replayResult) map[string]reading {
	per := func(num float64, den uint64) float64 {
		if den == 0 {
			return 0
		}
		return num / float64(den)
	}
	self := func(l layer) float64 { return float64(rp.SelfNs[l.String()]) }
	stage := func(name string, p99 bool) reading {
		s := tr.Stages[name]
		v := s.P50
		if p99 {
			v = s.P99
		}
		return reading{float64(v), "ns", s.Count}
	}
	flushes := rp.Flushes
	v := map[string]reading{
		"core.step_ns_per_env":          {per(self(layerCore), rp.InEnvs), "ns", rp.InEnvs},
		"core.allocs_per_env":           {per(float64(rp.CoreAllocs), rp.InEnvs), "count", rp.InEnvs},
		"core.out_env_per_tx":           {per(float64(rp.OutEnvs), rp.Committed), "count", rp.Committed},
		"core.history_nodes_max":        {float64(rp.HistoryMax), "count", 0},
		"core.pruned_per_flush":         {per(float64(rp.Pruned), flushes), "count", flushes},
		"core.ordering_p50_ns":          stage("ordering", false),
		"store.apply_ns_per_tx":         {per(self(layerStore), rp.Applied), "ns", rp.Applied},
		"store.execute_p50_ns":          stage("execute", false),
		"durable.append_ns_per_env":     {per(self(layerDurable), rp.InEnvs), "ns", rp.InEnvs},
		"durable.fsyncs_per_tx":         {per(tr.FsyncWindow, tr.Completed), "count", tr.Completed},
		"durable.fsync_p99_us":          {float64(tr.Fsync.P99) / 1e3, "us", tr.Fsync.Count},
		"durable.snapshot_write_p50_us": {float64(tr.SnapshotWrite.P50) / 1e3, "us", tr.SnapshotWrite.Count},
		"codec.encode_ns_per_env":       {per(self(layerEncode), rp.Sent), "ns", rp.Sent},
		"codec.decode_ns_per_env":       {per(self(layerDecode), rp.Sent), "ns", rp.Sent},
		"codec.bytes_per_tx":            {per(float64(rp.Bytes), rp.Committed), "B", rp.Committed},
		"runtime.batcher_ns_per_env":    {per(self(layerBatcher), rp.Sent), "ns", rp.Sent},
		"runtime.queue_wait_p99_ns":     stage("queue_wait", true),
		"runtime.flush_wait_p99_ns":     stage("flush_wait", true),
		"runtime.avg_batch":             {tr.AvgBatch, "count", 0},
		"runtime.backpressure_stall_ms": {tr.StallWindowNs / 1e6, "ms", 0},
		"transport.env_per_tx":          {per(tr.EnvelopesWindow, tr.Completed), "count", tr.Completed},
		"transport.ingress_p50_ns":      stage("ingress", false),
		"transport.reply_p50_ns":        stage("reply", false),
		"gc.cpu_frac":                   {tr.GCCPUWindowS * 1e9 / math.Max(tr.CPUWindowNs, 1), "fraction", 0},
		"gc.alloc_bytes_per_tx":         {per(tr.AllocWindowB, tr.Completed), "B", tr.Completed},
		"trace.overhead_frac":           {1 - tr.ThroughputTxS/math.Max(base.ThroughputTxS, 1), "fraction", 0},
	}
	// The layers the live workload actually runs, summed per committed
	// transaction of the replay, against the live CPU per transaction.
	// Only the tcp transport crosses the codec.
	attributed := self(layerCore) + self(layerStore) + self(layerDurable) + self(layerBatcher)
	if w.cfg(0).Transport == "tcp" {
		attributed += self(layerEncode) + self(layerDecode)
	}
	cpuPerTx := per(base.CPUWindowNs/1e3, base.Completed)
	v["replay.unattributed_us_per_tx"] = reading{cpuPerTx - per(attributed/1e3, rp.Committed), "us", rp.Committed}
	return v
}

// printSeries prints the traced run's within-run series: completions
// and inbound queue depth per sampler interval.
func printSeries(tr liveResult) {
	if len(tr.Series) == 0 {
		return
	}
	fmt.Printf("  series (traced run, per second): t_s window_tx/s traced_tx/s(x%d) queue_depth_total\n",
		tr.TraceSample)
	var prev seriesPoint
	for _, p := range tr.Series {
		dt := p.AtS - prev.AtS
		if dt <= 0 {
			continue
		}
		fmt.Printf("    %6.1f %9.0f %9.0f %8.0f\n", p.AtS,
			float64(p.WindowCompleted-prev.WindowCompleted)/dt,
			float64(p.TracedCompleted-prev.TracedCompleted)*float64(tr.TraceSample)/dt,
			p.QueueDepthTotal)
		prev = p
	}
}

// emitSpec writes BENCHMARK.json from the workload and metric tables.
func emitSpec(w io.Writer) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	spec := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}{
		Command:    []string{"python3", "perfbench/run.py"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, x := range workloads {
		spec.Workloads = append(spec.Workloads, wl{x.name, x.why})
	}
	b, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		panic(err)
	}
	fmt.Fprintln(w, string(b))
}

// runSeconds is the measurement window BENCHMARK.json declares.
const runSeconds = 20
