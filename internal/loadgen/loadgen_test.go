package loadgen

import (
	"os"
	"path/filepath"
	goruntime "runtime"
	"testing"
	"time"
)

func shortCfg() Config {
	return Config{
		Clients:  2,
		Workers:  8,
		Warmup:   100 * time.Millisecond,
		Duration: 400 * time.Millisecond,
		Timeout:  20 * time.Second,
	}
}

// TestRunInMemShort is the benchmark subsystem's smoke test: a short
// closed-loop run on the in-memory transport completes transactions and
// produces a self-consistent, validatable report.
func TestRunInMemShort(t *testing.T) {
	for _, batch := range []int{1, 16} {
		cfg := shortCfg()
		cfg.MaxBatch = batch
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("batch=%d: %v", batch, err)
		}
		if res.Completed == 0 || res.Throughput <= 0 {
			t.Fatalf("batch=%d: nothing completed: %+v", batch, res)
		}
		if res.Latency.P50 == 0 || res.Latency.P99 < res.Latency.P50 {
			t.Fatalf("batch=%d: implausible latency summary: %+v", batch, res.Latency)
		}
		if batch == 1 && res.BatchesSent != res.EnvelopesSent {
			t.Fatalf("batch=1 must send per envelope: %+v", res)
		}
		path := filepath.Join(t.TempDir(), "bench.json")
		rep := NewReport(cfg, res)
		if err := rep.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		back, err := ValidateFile(path)
		if err != nil {
			t.Fatalf("batch=%d: report failed validation: %v", batch, err)
		}
		if back.Config.MaxBatch != batch || back.Results.Completed != res.Completed {
			t.Fatalf("batch=%d: report round trip mangled: %+v", batch, back)
		}
	}
}

// TestRunTCPShort drives the same smoke over loopback TCP.
func TestRunTCPShort(t *testing.T) {
	cfg := shortCfg()
	cfg.Transport = "tcp"
	cfg.Groups = 4 // fewer listeners: keep the test light
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatalf("nothing completed: %+v", res)
	}
}

// TestRunOpenLoopShort checks the open-loop pacer: offered load is
// honored (or shed under the outstanding cap) and completions resolve
// through the asynchronous reply path.
func TestRunOpenLoopShort(t *testing.T) {
	cfg := shortCfg()
	cfg.Rate = 2000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatalf("nothing completed: %+v", res)
	}
	if res.Issued == 0 {
		t.Fatalf("pacer issued nothing: %+v", res)
	}
}

// checkExecuteResult asserts the execute-mode section is present and
// self-consistent.
func checkExecuteResult(t *testing.T, res *Result) {
	t.Helper()
	ex := res.Execute
	if ex == nil {
		t.Fatal("execute run produced no execution result")
	}
	if !ex.InvariantsOK || !ex.ReplicaDigestsOK {
		t.Fatalf("audits failed: %+v", ex)
	}
	if ex.TxApplied == 0 || len(ex.GlobalDigest) != 64 {
		t.Fatalf("implausible execution result: %+v", ex)
	}
	for typ, st := range ex.PerType {
		if st.Aborted > 0 && typ != "new-order" {
			t.Fatalf("%s aborted %d times; only new-orders roll back", typ, st.Aborted)
		}
	}
}

// TestRunExecuteInMem drives the store-backed benchmark: transactions
// execute at every involved shard, verdicts flow back on replies, the
// run drains and the cross-shard invariants and replica digests hold.
// The batched and unbatched paths must both execute correctly.
func TestRunExecuteInMem(t *testing.T) {
	for _, batch := range []int{1, 16} {
		cfg := shortCfg()
		cfg.Execute = true
		cfg.MaxBatch = batch
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("batch=%d: %v", batch, err)
		}
		if res.Completed == 0 {
			t.Fatalf("batch=%d: nothing completed", batch)
		}
		checkExecuteResult(t, res)

		path := filepath.Join(t.TempDir(), "bench.json")
		if err := NewReport(cfg, res).WriteFile(path); err != nil {
			t.Fatal(err)
		}
		back, err := ValidateFile(path)
		if err != nil {
			t.Fatalf("batch=%d: execute report failed validation: %v", batch, err)
		}
		if !back.Config.Execute || back.Results.Execute == nil {
			t.Fatalf("batch=%d: execute section lost in round trip", batch)
		}
	}
}

// TestRunExecuteTCP drives store execution over loopback TCP: the
// result byte must survive the wire codec for verdicts to reach
// clients.
func TestRunExecuteTCP(t *testing.T) {
	cfg := shortCfg()
	cfg.Execute = true
	cfg.Transport = "tcp"
	cfg.Groups = 4
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("nothing completed")
	}
	checkExecuteResult(t, res)
}

// TestRunExecuteDeterministicDigest runs the same seeded closed-loop
// workload twice; completion interleavings differ, but the audits must
// hold in both runs and the final global digest must be reported.
func TestRunExecuteDeterministicDigest(t *testing.T) {
	cfg := shortCfg()
	cfg.Execute = true
	cfg.Protocol = "skeen"
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkExecuteResult(t, res)
}

// TestRunReadMix exercises the local-read fast path under load: half
// the iterations are fast-path reads, measured in their own histogram,
// while the multicast path and every execute-mode audit stay intact.
func TestRunReadMix(t *testing.T) {
	cfg := shortCfg()
	cfg.Execute = true
	cfg.ReadPct = 50
	cfg.Zipf = 1.3
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatalf("no multicast transactions completed: %+v", res)
	}
	if res.Reads == 0 || res.ReadLatency == nil || res.ReadLatency.Count == 0 {
		t.Fatalf("read mix measured no fast-path reads: %+v", res)
	}
	if res.TotalThroughput <= res.Throughput {
		t.Fatalf("total throughput %v not above write throughput %v", res.TotalThroughput, res.Throughput)
	}
	// Fast reads must be far cheaper than the multicast path.
	if res.ReadLatency.Mean >= res.Latency.Mean {
		t.Fatalf("fast reads slower than multicast writes: read mean %v vs write mean %v",
			res.ReadLatency.Mean, res.Latency.Mean)
	}
	if res.Execute == nil || !res.Execute.InvariantsOK || !res.Execute.ReplicaDigestsOK {
		t.Fatalf("execute audits failed under read mix: %+v", res.Execute)
	}
	// The report round-trips through validation with the read section.
	path := filepath.Join(t.TempDir(), "readmix.json")
	if err := NewReport(cfg, res).WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateFile(path); err != nil {
		t.Fatal(err)
	}
}

// TestReadMixRequiresExecute pins the config contract.
func TestReadMixRequiresExecute(t *testing.T) {
	cfg := shortCfg()
	cfg.ReadPct = 50
	if _, err := Run(cfg); err == nil {
		t.Fatal("read mix without execute accepted")
	}
	cfg = shortCfg()
	cfg.Execute = true
	cfg.ReadPct = 101
	if _, err := Run(cfg); err == nil {
		t.Fatal("read percentage above 100 accepted")
	}
	cfg = shortCfg()
	cfg.Zipf = 0.5
	if _, err := Run(cfg); err == nil {
		t.Fatal("invalid zipf parameter accepted")
	}
}

// TestRunProtocolsExecuteDurable runs every protocol through the real
// runtime with store execution and the durable backend on the paper's
// 12 groups (O1 overlay, T1 tree). Snapshots every 64 envelopes make the
// end-of-run crash-image recovery restore snapshots, so each protocol's
// composed store-over-protocol snapshot decoder runs; the run's own
// digest and replay-bound checks are the oracle.
func TestRunProtocolsExecuteDurable(t *testing.T) {
	for _, proto := range []string{"flexcast", "skeen", "hierarchical"} {
		t.Run(proto, func(t *testing.T) {
			cfg := shortCfg()
			cfg.Protocol = proto
			cfg.Execute = true
			cfg.Durable = true
			cfg.DurableDir = t.TempDir()
			cfg.DurableSnapshotEvery = 64
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Completed == 0 {
				t.Fatal("nothing completed")
			}
			checkExecuteResult(t, res)
			d := res.Durable
			if d == nil || !d.DigestsMatch || d.Groups != 12 {
				t.Fatalf("crash-image recovery not verified on every group: %+v", d)
			}
			if d.SnapshottedGroups == 0 {
				t.Fatalf("no group recovered from a snapshot; the snapshot decoder never ran: %+v", d)
			}
		})
	}
}

// TestDeployClosesPartialAssembly fails a deployment midway — group 3's
// durable directory is a regular file — and requires the assembly to
// report the error and leave nothing running: the nodes, durable WALs
// and follower replicas of groups 1 and 2 are closed, so the goroutine
// count settles back to its baseline.
func TestDeployClosesPartialAssembly(t *testing.T) {
	for _, transport := range []string{"inmem", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			cfg := shortCfg()
			cfg.Transport = transport
			cfg.Groups = 4
			cfg.Execute = true
			cfg.Durable = true
			cfg.Replicas = 2
			cfg.DurableDir = t.TempDir()
			if err := cfg.fill(); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(cfg.DurableDir, "group-3"), nil, 0o644); err != nil {
				t.Fatal(err)
			}
			base := goruntime.NumGoroutine()
			r, err := newRun(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if dep, _, err := start(r); err == nil {
				dep.close()
				t.Fatal("deployment over an unusable group directory succeeded")
			}
			deadline := time.Now().Add(5 * time.Second)
			for goruntime.NumGoroutine() > base {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines still running after the failed assembly, baseline %d",
						goruntime.NumGoroutine(), base)
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}

// TestConfigValidation rejects unknown transports and protocols.
func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{Transport: "carrier-pigeon"}); err == nil {
		t.Fatal("bad transport accepted")
	}
	if _, err := Run(Config{Protocol: "two-phase-wish"}); err == nil {
		t.Fatal("bad protocol accepted")
	}
	if _, err := Run(Config{Groups: 1}); err == nil {
		t.Fatal("single group accepted")
	}
}

// TestValidateFileRejectsGarbage covers the CI gate's failure modes.
func TestValidateFileRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string]string{
		"notjson.json": "}{",
		"schema.json":  `{"schema":"flexload/v0","results":{"completed":1}}`,
		"empty.json":   `{"schema":"flexload/v1"}`,
		"zero.json":    `{"schema":"flexload/v1","results":{"completed":0}}`,
	} {
		path := filepath.Join(dir, name)
		if err := writeFile(path, content); err != nil {
			t.Fatal(err)
		}
		if _, err := ValidateFile(path); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

// TestRunFollowerReads deploys the replicated read path: every group
// gains follower read replicas, dedicated read sessions hammer them at
// the session barrier, and the report carries the per-replica read
// breakdown. With follower reads on, the followers (not the serving
// node) serve the reads.
func TestRunFollowerReads(t *testing.T) {
	cfg := shortCfg()
	cfg.Execute = true
	cfg.ReadPct = 25
	cfg.Replicas = 3
	cfg.FollowerReads = true
	cfg.ReadWorkers = 1
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 || res.Reads == 0 {
		t.Fatalf("run measured nothing: %+v", res)
	}
	if len(res.ReadsPerReplica) != 3 {
		t.Fatalf("reads_per_replica has %d entries, want 3", len(res.ReadsPerReplica))
	}
	if res.ReadsPerReplica[1]+res.ReadsPerReplica[2] == 0 {
		t.Fatalf("followers served nothing: %v", res.ReadsPerReplica)
	}
	var sum uint64
	for _, n := range res.ReadsPerReplica {
		sum += n
	}
	if sum != res.Reads {
		t.Fatalf("per-replica counts %v do not sum to reads %d", res.ReadsPerReplica, res.Reads)
	}
	if res.Execute == nil || !res.Execute.InvariantsOK {
		t.Fatalf("execute audits failed under follower reads: %+v", res.Execute)
	}
	path := filepath.Join(t.TempDir(), "follower.json")
	if err := NewReport(cfg, res).WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateFile(path); err != nil {
		t.Fatal(err)
	}
}

// TestRunTracedStages runs with lifecycle tracing on and checks the
// stage decomposition: sampled record count tracks 1-in-N of
// completions, stage summaries appear in pipeline order, and the
// report's stages section survives write + validation (which also
// enforces the telescoping count-weighted mean identity).
func TestRunTracedStages(t *testing.T) {
	cfg := shortCfg()
	cfg.Execute = true
	cfg.TraceSample = 4
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("nothing completed")
	}
	st := res.Stages
	if st == nil {
		t.Fatalf("traced run produced no stages section: %+v", res)
	}
	if st.SampleEvery != 4 {
		t.Fatalf("sample_every = %d, want 4", st.SampleEvery)
	}
	// 1-in-N sampling: the sampled population is every 4th sequence
	// number, so records sits near completed/4. Allow wide slack for
	// requests in flight at the deadline and per-client remainders.
	lo, hi := res.Completed/8, res.Completed/2
	if st.Records < lo || st.Records > hi {
		t.Fatalf("records = %d for %d completed; want within [%d, %d] (≈1 in 4)",
			st.Records, res.Completed, lo, hi)
	}
	if st.E2E.Count != st.Records {
		t.Fatalf("e2e count %d != records %d", st.E2E.Count, st.Records)
	}
	// The execute stage must be present on a store-backed run, and all
	// summaries must arrive in pipeline order with samples.
	seen := map[string]bool{}
	for _, sg := range st.Stages {
		if sg.Count == 0 {
			t.Fatalf("stage %s has no samples", sg.Stage)
		}
		seen[sg.Stage] = true
	}
	for _, want := range []string{"ingress", "ordering", "execute", "reply"} {
		if !seen[want] {
			t.Fatalf("stage %q missing from decomposition: %+v", want, st.Stages)
		}
	}
	// WriteFile validates on write; ValidateFile re-validates on read —
	// both run validateStages on the section.
	path := filepath.Join(t.TempDir(), "traced.json")
	if err := NewReport(cfg, res).WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ValidateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Results.Stages == nil || back.Config.TraceSample != 4 {
		t.Fatalf("stages section lost in round trip: %+v", back.Config)
	}

	// Untraced control: no stages section (negative disables; 0 would
	// fill to the default of 16).
	cfg.TraceSample = -1
	res2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stages != nil {
		t.Fatalf("untraced run grew a stages section: %+v", res2.Stages)
	}
}

// TestRunLeaderReadsRemote is the replicated leader-only baseline:
// reads cross the transport as KindRead transactions to the serving
// node, resolve through the reply path, and none may be refused.
func TestRunLeaderReadsRemote(t *testing.T) {
	cfg := shortCfg()
	cfg.Execute = true
	cfg.ReadPct = 25
	cfg.Replicas = 2
	cfg.ReadWorkers = 1
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reads == 0 {
		t.Fatalf("no remote reads measured: %+v", res)
	}
	if res.RemoteReads != res.Reads {
		t.Fatalf("leader-only run served %d of %d reads remotely", res.RemoteReads, res.Reads)
	}
	if res.ReadsPerReplica[1] != 0 {
		t.Fatalf("leader-only run read a follower: %v", res.ReadsPerReplica)
	}
	// Remote reads pay a transport round trip; the write path must
	// still dominate them (they skip the ordering round entirely).
	if res.ReadLatency == nil || res.ReadLatency.Count == 0 {
		t.Fatal("remote reads measured no latency")
	}
}

// TestFollowerReadsConfigContract pins the new knobs' validation.
func TestFollowerReadsConfigContract(t *testing.T) {
	cfg := shortCfg()
	cfg.Replicas = 2
	if _, err := Run(cfg); err == nil {
		t.Fatal("-replicas without -execute accepted")
	}
	cfg = shortCfg()
	cfg.Execute = true
	cfg.FollowerReads = true
	if _, err := Run(cfg); err == nil {
		t.Fatal("-follower-reads without -replicas accepted")
	}
	cfg = shortCfg()
	cfg.ReadWorkers = 2
	if _, err := Run(cfg); err == nil {
		t.Fatal("-read-workers without -execute accepted")
	}
}

// TestRunSessionsOpenLoop is the session-multiplexed open loop end to
// end on the in-memory transport: ~10^3 virtual sessions per client
// ride the process's single connection, the adaptive controller runs
// the nodes, and the report carries a validatable SLO section with a
// controller trajectory.
func TestRunSessionsOpenLoop(t *testing.T) {
	cfg := shortCfg()
	cfg.Rate = 4000
	cfg.Sessions = 1024
	cfg.Adaptive = true
	cfg.SLOMs = 200
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 || res.Issued == 0 {
		t.Fatalf("session-multiplexed run measured nothing: %+v", res)
	}
	slo := res.SLO
	if slo == nil {
		t.Fatalf("-slo-ms run produced no slo section: %+v", res)
	}
	if slo.TargetMs != 200 || slo.Sessions != 1024 {
		t.Fatalf("slo config echo mangled: %+v", slo)
	}
	if slo.GoodCompleted > res.Completed {
		t.Fatalf("good %d exceeds completed %d", slo.GoodCompleted, res.Completed)
	}
	if len(slo.Trajectory) == 0 {
		t.Fatalf("no controller trajectory sampled over a %v window", cfg.Duration)
	}
	for i, p := range slo.Trajectory {
		if p.Batch < 1 || p.FlushIntervalUs < 50 {
			t.Fatalf("trajectory point %d outside the controller range: %+v", i, p)
		}
	}
	path := filepath.Join(t.TempDir(), "slo.json")
	if err := NewReport(cfg, res).WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ValidateFile(path)
	if err != nil {
		t.Fatalf("slo report failed validation: %v", err)
	}
	if back.Results.SLO == nil || !back.Config.Adaptive || back.Config.Sessions != 1024 {
		t.Fatalf("slo section lost in round trip: %+v", back.Config)
	}
}

// TestRunSessionsTCP drives session multiplexing over loopback TCP with
// store execution: many sessions share each client's one real socket,
// session ids cross the wire codec, per-session FIFO rides the
// connection's FIFO, and every execute-mode audit (verdicts, invariants,
// replica digests) must still hold.
func TestRunSessionsTCP(t *testing.T) {
	cfg := shortCfg()
	cfg.Transport = "tcp"
	cfg.Groups = 4
	cfg.Rate = 2000
	cfg.Sessions = 256
	cfg.Adaptive = true
	cfg.SLOMs = 500
	cfg.Execute = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatalf("nothing completed: %+v", res)
	}
	checkExecuteResult(t, res)
	if res.SLO == nil {
		t.Fatal("no slo section over TCP")
	}
}

// TestRunSessionsShedUnderOverload overdrives a session-multiplexed
// run far past capacity with a tight per-session budget: admission must
// shed (not queue) the excess, and the shed count must be visible in
// the SLO section's shed rate.
func TestRunSessionsShedUnderOverload(t *testing.T) {
	cfg := shortCfg()
	cfg.Rate = 50000 // far past what the deployment completes
	cfg.Sessions = 16
	cfg.SessionOutstanding = 1
	cfg.SessionBurst = 1
	cfg.SLOMs = 100
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed == 0 {
		t.Fatalf("overdriven run shed nothing: %+v", res)
	}
	if res.SLO == nil || res.SLO.ShedRate <= 0 {
		t.Fatalf("shed rate missing from slo section: %+v", res.SLO)
	}
}

// TestDeployTCPRepeatedly deploys and tears down the tcp transport many
// times. Every node serves on the listener whose address the book
// publishes, so no deployment can fail to bind: a port released between
// reservation and listen could be handed to the next reservation too.
func TestDeployTCPRepeatedly(t *testing.T) {
	cfg := shortCfg()
	cfg.Transport = "tcp"
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		r, err := newRun(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dep, _, err := start(r)
		if err != nil {
			t.Fatalf("deployment %d: %v", i, err)
		}
		dep.close()
	}
}

// TestWaitTimerSkipsStaleFire: a fire an earlier wait left in the
// timer's channel (it raced that wait's Stop) must not time out the next
// wait, and a wait nothing answers must time out.
func TestWaitTimerSkipsStaleFire(t *testing.T) {
	w := newWaitTimer()
	never := make(chan struct{})
	if !w.await(never, never, time.Millisecond) {
		t.Fatal("an unanswered wait did not time out")
	}
	w.t.Reset(time.Nanosecond)
	time.Sleep(time.Millisecond) // the fire lands in the channel, unread
	done := make(chan struct{})
	time.AfterFunc(5*time.Millisecond, func() { close(done) })
	if w.await(done, never, time.Hour) {
		t.Fatal("a stale fire timed out a fresh wait")
	}
}
