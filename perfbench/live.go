package main

import (
	"fmt"
	"os"
	"path/filepath"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"flexcast/internal/loadgen"
	"flexcast/internal/metrics"
	"flexcast/internal/telemetry"
)

// liveSpec is one live run: a workload through loadgen.Run, in the
// process that executes it.
type liveSpec struct {
	workload  *workload
	seed      int64
	window    time.Duration
	traced    bool
	setupOnly bool   // measure setup only
	tmp       string // scratch directory (WAL, snapshots)
}

// seriesPoint is one sampler interval of a traced run: completions and
// inbound queue depth over time, a diagnostic of within-run drift.
type seriesPoint struct {
	AtS float64 `json:"at_s"` // since the deployment came up
	// WindowCompleted is loadgen's measurement-window completion
	// counter (0 before the window opens); TracedCompleted counts
	// completed trace records (one in TraceSample writes) from the
	// start, so it also covers the warm-up.
	WindowCompleted uint64  `json:"window_completed"`
	TracedCompleted uint64  `json:"traced_completed"`
	QueueDepthTotal float64 `json:"queue_depth_total"`
}

// liveResult is what one live run reports to the orchestrator.
type liveResult struct {
	Err            string  `json:"err,omitempty"`
	SetupS         float64 `json:"setup_s"`
	WindowS        float64 `json:"window_s"`
	Issued         uint64  `json:"issued"`
	Shed           uint64  `json:"shed"`
	Completed      uint64  `json:"completed"`
	ThroughputTxS  float64 `json:"throughput_tx_s"`
	LatencyP50Us   float64 `json:"latency_p50_us"`
	LatencyP99Us   float64 `json:"latency_p99_us"`
	LatencySamples uint64  `json:"latency_samples"`
	// CPUWindowNs is process user+sys CPU inside the measurement window.
	CPUWindowNs float64 `json:"cpu_window_ns"`
	RSSPeakMB   float64 `json:"rss_peak_mb"`
	// StealFrac is the share of the machine's CPU time the hypervisor
	// gave to other guests during the window (/proc/stat steal).
	StealFrac float64 `json:"steal_frac"`

	// Traced runs only.
	Stages          map[string]metrics.NsSummary `json:"stages,omitempty"`
	TraceSample     int                          `json:"trace_sample,omitempty"`
	Fsync           metrics.NsSummary            `json:"wal_fsync_ns"`
	FsyncWindow     float64                      `json:"wal_fsyncs_window"`
	SnapshotWrite   metrics.NsSummary            `json:"snapshot_write_ns"`
	AvgBatch        float64                      `json:"avg_batch"`
	EnvelopesWindow float64                      `json:"envelopes_window"`
	StallWindowNs   float64                      `json:"backpressure_stall_ns_window"`
	GCCPUWindowS    float64                      `json:"gc_cpu_window_s"`
	AllocWindowB    float64                      `json:"alloc_bytes_window"`
	Series          []seriesPoint                `json:"series,omitempty"`
}

// hostSteal reads the system-wide "cpu" line of /proc/stat: ticks the
// hypervisor gave to other guests (steal) and all ticks. Their deltas
// over the window say how much of the machine another tenant took.
func hostSteal() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:9] { // user..steal; guest time is already in user
		n, _ := strconv.ParseUint(v, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// processCPU is this process's user+sys CPU time in nanoseconds.
func processCPU() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// rssPeakMB is this process's peak resident set (Linux reports KiB).
func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// registryPoint is the part of telemetry.Default a traced run reads at
// the window edges.
type registryPoint struct {
	issued, shed, stallNs uint64
	envelopes             float64
	fsyncs                uint64
	gcCPU, allocBytes     float64
	steal, ticks          uint64
}

var rtSamples = []rtmetrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/gc/heap/allocs:bytes"},
}

func readRegistry() registryPoint {
	snap := telemetry.Default.Snapshot()
	c := snap.Counters
	flushes := c["batch_size_flushes"] + c["batch_chunk_flushes"] + c["batch_timer_flushes"]
	p := registryPoint{
		issued:    c["issued"],
		shed:      c["shed"],
		stallNs:   c["backpressure_stall_ns"],
		envelopes: snap.Gauges["batch_avg"] * float64(flushes),
		fsyncs:    snap.Histograms["wal_fsync_ns"].Count,
	}
	p.steal, p.ticks = hostSteal()
	rtmetrics.Read(rtSamples)
	p.gcCPU = rtSamples[0].Value.Float64()
	p.allocBytes = float64(rtSamples[1].Value.Uint64())
	return p
}

func registered() bool {
	_, ok := telemetry.Default.Snapshot().Counters["issued"]
	return ok
}

// runLive executes one live run and measures it from outside: setup
// time until loadgen publishes the run's counters, and process CPU
// interpolated at the measurement window's edges. loadgen opens the
// window Warmup after publishing; the sampler locates the exact opening
// as the first poll that sees the window's issued counter move.
func runLive(spec liveSpec) liveResult {
	cfg := spec.workload.cfg(spec.seed)
	cfg.Warmup = spec.workload.warmup
	cfg.Duration = spec.window
	if spec.traced {
		cfg.TraceSample = 16
	}
	if cfg.Durable {
		cfg.DurableDir = filepath.Join(spec.tmp, "durable")
	}

	// Setup is detected by the run's counters appearing in the registry,
	// so every run starts from an empty one.
	telemetry.Default = telemetry.NewRegistry()
	base := time.Now()
	clock := func() int64 { return int64(time.Since(base)) }
	finished := make(chan struct{})
	var res *loadgen.Result
	var runErr error
	go func() {
		defer close(finished)
		res, runErr = loadgen.Run(cfg)
	}()
	isDone := func() bool {
		select {
		case <-finished:
			return true
		default:
			return false
		}
	}
	fail := func(err error) liveResult {
		<-finished
		out := liveResult{Err: err.Error()}
		if runErr != nil {
			out.Err = runErr.Error()
		}
		p := readRegistry()
		out.Issued, out.Shed = p.issued, p.shed
		return out
	}

	// Setup: until the run's counters appear in the registry.
	for !registered() {
		if isDone() {
			return fail(fmt.Errorf("run ended before its deployment came up"))
		}
		time.Sleep(20 * time.Microsecond)
	}
	up := clock()
	out := liveResult{SetupS: float64(up) / 1e9}
	if spec.setupOnly {
		return out
	}

	var seriesStop chan struct{}
	var seriesOut chan []seriesPoint
	if spec.traced {
		seriesStop, seriesOut = make(chan struct{}), make(chan []seriesPoint, 1)
		go sampleSeries(up, clock, seriesStop, seriesOut)
	}

	// Window open: poll from shortly before the expected instant.
	var cpu []sample
	time.Sleep(time.Duration(up+int64(cfg.Warmup)-30e6-clock()) * time.Nanosecond)
	prev := sample{At: clock(), Value: processCPU()}
	cpu = append(cpu, prev)
	var atOpen registryPoint
	open := int64(-1)
	for open < 0 {
		if isDone() {
			return fail(fmt.Errorf("run ended before its window opened"))
		}
		time.Sleep(250 * time.Microsecond)
		p := readRegistry()
		s := sample{At: clock(), Value: processCPU()}
		cpu = append(cpu, s)
		if p.issued > 0 {
			open = (prev.At + s.At) / 2
			atOpen = p
		}
		prev = s
	}
	end := open + int64(cfg.Duration)
	time.Sleep(time.Duration(end-5e6-clock()) * time.Nanosecond)
	cpu = append(cpu, sample{At: clock(), Value: processCPU()})
	time.Sleep(time.Duration(end+5e6-clock()) * time.Nanosecond)
	cpu = append(cpu, sample{At: clock(), Value: processCPU()})
	atEnd := readRegistry()
	<-finished
	if seriesStop != nil {
		close(seriesStop)
		out.Series = <-seriesOut
	}
	if runErr != nil {
		return fail(runErr)
	}
	cpuNs, err := windowDelta(cpu, open, end)
	if err != nil {
		return fail(err)
	}

	out.WindowS = res.WindowSecs
	out.Issued, out.Shed, out.Completed = res.Issued, res.Shed, res.Completed
	out.ThroughputTxS = res.Throughput
	out.LatencyP50Us = float64(res.Latency.P50)
	out.LatencyP99Us = float64(res.Latency.P99)
	out.LatencySamples = res.Latency.Count
	out.CPUWindowNs = cpuNs
	out.RSSPeakMB = rssPeakMB()
	if atEnd.ticks > atOpen.ticks {
		out.StealFrac = float64(atEnd.steal-atOpen.steal) / float64(atEnd.ticks-atOpen.ticks)
	}
	if spec.traced {
		out.TraceSample = cfg.TraceSample
		if res.Stages != nil {
			out.Stages = make(map[string]metrics.NsSummary, len(res.Stages.Stages))
			for _, s := range res.Stages.Stages {
				out.Stages[s.Stage] = s.NsSummary
			}
		}
		snap := telemetry.Default.Snapshot()
		out.Fsync = snap.Histograms["wal_fsync_ns"]
		out.SnapshotWrite = snap.Histograms["snapshot_write_ns"]
		out.FsyncWindow = float64(atEnd.fsyncs - atOpen.fsyncs)
		out.AvgBatch = res.AvgBatch
		out.EnvelopesWindow = atEnd.envelopes - atOpen.envelopes
		out.StallWindowNs = float64(atEnd.stallNs - atOpen.stallNs)
		out.GCCPUWindowS = atEnd.gcCPU - atOpen.gcCPU
		out.AllocWindowB = atEnd.allocBytes - atOpen.allocBytes
	}
	return out
}

// sampleSeries records one seriesPoint per second until stop closes.
func sampleSeries(up int64, clock func() int64, stop <-chan struct{}, out chan<- []seriesPoint) {
	var pts []seriesPoint
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		select {
		case <-stop:
			out <- pts
			return
		case <-t.C:
		}
		snap := telemetry.Default.Snapshot()
		var traced uint64
		if st := snap.Stages["write_path"]; st != nil {
			traced = st.Records
		}
		pts = append(pts, seriesPoint{
			AtS:             float64(clock()-up) / 1e9,
			WindowCompleted: snap.Counters["completed"],
			TracedCompleted: traced,
			QueueDepthTotal: snap.Gauges["queue_depth_total"],
		})
	}
}

// liveMain is the child entry point for live runs: it prints the
// result as one JSON line. A setup probe then exits at once, with its
// deployment still up: tearing down is not set-up, and a probe that
// tore down would repeat loadgen's teardown (and its wan delay-link
// race, NOTES.md) once per probe rather than once per run.
func liveMain(spec liveSpec) {
	emit(runLive(spec))
	if spec.setupOnly {
		os.Exit(0)
	}
}
