package shard

// The integration tests here exercise the whole service tier with real
// worker subprocesses: the test binary re-execs itself as a worker when
// QSWITCH_SHARD_WORKER=1 (see TestMain), so every test runs
// chunks across genuine process boundaries, under fault injection, exactly
// as the CLI deployment does — in ordinary `go test`, no external binaries
// needed.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"reflect"
	"testing"
	"time"

	"qswitch/internal/adversary"
	"qswitch/internal/experiments"
	"qswitch/internal/packet"
	"qswitch/internal/ratio"
	"qswitch/internal/shard/faultinject"
	"qswitch/internal/switchsim"
)

// TestMain re-execs as a shard worker when asked: the coordinator tests
// spawn this very test binary with QSWITCH_SHARD_WORKER=1 (and optionally
// QSWITCH_SHARD_CHAOS) in the environment, and it serves the stdio worker
// protocol instead of running tests.
func TestMain(m *testing.M) {
	if os.Getenv("QSWITCH_SHARD_WORKER") == "1" {
		inj, err := faultinject.ParseSpec(os.Getenv("QSWITCH_SHARD_CHAOS"))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if err := ServeStdio(ServeOptions{
			Chaos:          inj,
			HeartbeatEvery: 50 * time.Millisecond,
			HangFor:        5 * time.Second,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// workerSpecs builds n self-exec worker specs; chaos[i] (when non-empty)
// becomes worker i's fault-injection spec.
func workerSpecs(t testing.TB, chaos ...string) []WorkerSpec {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}
	specs := make([]WorkerSpec, len(chaos))
	for i, cs := range chaos {
		env := []string{"QSWITCH_SHARD_WORKER=1"}
		if cs != "" {
			env = append(env, "QSWITCH_SHARD_CHAOS="+cs)
		}
		specs[i] = WorkerSpec{Cmd: []string{exe}, Env: env}
	}
	return specs
}

// newTestCoordinator builds a coordinator with test-friendly timing and
// closes it with the test.
func newTestCoordinator(t testing.TB, opts CoordinatorOptions) *Coordinator {
	t.Helper()
	if opts.HeartbeatTimeout == 0 {
		opts.HeartbeatTimeout = 2 * time.Second
	}
	if opts.RetryBase == 0 {
		opts.RetryBase = 5 * time.Millisecond
	}
	if opts.RetryMax == 0 {
		opts.RetryMax = 50 * time.Millisecond
	}
	if opts.Logf == nil {
		opts.Logf = t.Logf
	}
	c, err := NewCoordinator(opts)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// microCfg is a 2x2 switch small enough for the exact DP judge to be fast.
var microCfg = switchsim.Config{
	Inputs: 2, Outputs: 2,
	InputBuf: 2, OutputBuf: 2, CrossBuf: 1,
	Speedup: 1, Slots: 8,
}

var microGen = packet.Bernoulli{Load: 0.7}

// microReq names the canonical test estimation; K0/K1 are filled per chunk
// by RunSharded.
func microReq() ratio.ChunkRequest {
	return ratio.ChunkRequest{
		Cfg: microCfg, Policy: "gm", Judge: "exactunit",
		Gen: microGen, BaseSeed: 1,
	}
}

// microBaseline is the in-process sequential Run the sharded runs must
// reproduce byte-for-byte.
func microBaseline(t *testing.T, runs int) ratio.Estimate {
	t.Helper()
	alg, _, err := ResolvePolicy("gm", false)
	if err != nil {
		t.Fatalf("ResolvePolicy: %v", err)
	}
	judge, err := ResolveJudge("exactunit", false)
	if err != nil {
		t.Fatalf("ResolveJudge: %v", err)
	}
	want, err := ratio.Run(context.Background(), microCfg, alg, judge, microGen, 1, runs)
	if err != nil {
		t.Fatalf("baseline Run: %v", err)
	}
	return want
}

func TestShardedRatioMatchesRun(t *testing.T) {
	const runs = 24
	want := microBaseline(t, runs)
	c := newTestCoordinator(t, CoordinatorOptions{Workers: workerSpecs(t, "", "")})
	got, err := ratio.RunSharded(context.Background(), c, microReq(), runs, 4)
	if err != nil {
		t.Fatalf("RunSharded: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sharded estimate differs from sequential Run:\n got  %+v\n want %+v", got, want)
	}
	st := c.Stats()
	if st.ChunksExecuted != 6 {
		t.Errorf("ChunksExecuted = %d, want 6", st.ChunksExecuted)
	}
	if st.LocalChunks != 0 {
		t.Errorf("LocalChunks = %d, want 0 (workers were healthy)", st.LocalChunks)
	}
}

// TestShardedExperimentsMatchSingleProcess is the PR's acceptance test:
// E1–E4 sharded across two worker processes must render the
// byte-identical tables a single-process run produces.
func TestShardedExperimentsMatchSingleProcess(t *testing.T) {
	c := newTestCoordinator(t, CoordinatorOptions{Workers: workerSpecs(t, "", "")})
	for _, exp := range experiments.All() {
		switch exp.ID {
		case "e1", "e2", "e3", "e4":
		default:
			continue
		}
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			want := renderTables(t, exp, experiments.Options{Quick: true, Seed: 1})
			got := renderTables(t, exp, experiments.Options{Quick: true, Seed: 1, Shard: c, ShardChunk: 8})
			if got != want {
				t.Errorf("sharded %s tables differ from single-process:\n--- sharded ---\n%s\n--- single ---\n%s",
					exp.ID, got, want)
			}
		})
	}
}

func renderTables(t *testing.T, exp experiments.Experiment, opts experiments.Options) string {
	t.Helper()
	tables, err := exp.Run(opts)
	if err != nil {
		t.Fatalf("%s: %v", exp.ID, err)
	}
	var buf bytes.Buffer
	for _, tb := range tables {
		tb.Render(&buf)
	}
	return buf.String()
}

// TestShardedChaosIdentity runs an estimation over a deliberately hostile
// fleet — one worker that always crashes, one that always corrupts its
// response frame, one that always hangs, and one that always delays — and
// demands the result still be byte-identical to the sequential run. The
// pure saboteurs fail every chunk they touch (the per-process chaos
// schedule restarts at request 0 on respawn), so the attempt budget must
// absorb at most (saboteurs) x (MaxRespawns+1) = 6 failures before every
// slot is excluded; the delay worker always completes, so the run can
// never starve.
func TestShardedChaosIdentity(t *testing.T) {
	const runs = 32
	want := microBaseline(t, runs)
	c := newTestCoordinator(t, CoordinatorOptions{
		Workers: workerSpecs(t,
			"seed=1,kill=1",
			"seed=2,corrupt=1",
			"seed=3,hang=1",
			"seed=4,delay=1,maxdelayms=30",
		),
		HeartbeatTimeout: 700 * time.Millisecond,
		MaxAttempts:      8,
		MaxRespawns:      1,
	})
	got, err := ratio.RunSharded(context.Background(), c, microReq(), runs, 2)
	if err != nil {
		t.Fatalf("RunSharded under chaos: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("chaotic sharded estimate differs from sequential Run:\n got  %+v\n want %+v", got, want)
	}
	st := c.Stats()
	if st.Retries == 0 {
		t.Errorf("Retries = 0, want > 0 (saboteur workers fail every chunk they receive)")
	}
	t.Logf("chaos stats: %+v", st)
}

// TestCheckpointResume simulates a coordinator crash and restart: a first
// coordinator completes a prefix of the workload against a checkpoint log,
// "crashes" (closes) with a torn partial record appended — as a crash
// mid-append would leave — and a second coordinator over the same log must
// answer the already-committed chunks from the checkpoint without
// re-executing them, finishing the rest to the byte-identical estimate.
func TestCheckpointResume(t *testing.T) {
	path := t.TempDir() + "/checkpoint.qswf"

	// Phase 1: run the first 12 seeds (3 chunks of 4) and "crash".
	c1 := newTestCoordinator(t, CoordinatorOptions{
		Workers: workerSpecs(t, ""), CheckpointPath: path,
	})
	if _, err := ratio.RunSharded(context.Background(), c1, microReq(), 12, 4); err != nil {
		t.Fatalf("phase 1 RunSharded: %v", err)
	}
	if err := c1.Close(); err != nil {
		t.Fatalf("phase 1 Close: %v", err)
	}

	// The crash tore a partial frame onto the tail of the log.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatalf("open checkpoint: %v", err)
	}
	if _, err := f.Write([]byte("QSWF\x01torn-partial-append")); err != nil {
		t.Fatalf("append torn tail: %v", err)
	}
	f.Close()

	// Phase 2: a fresh coordinator resumes over the same log and extends the
	// workload to 24 seeds (6 chunks): the 3 committed chunks must be
	// checkpoint hits, the rest executed.
	c2 := newTestCoordinator(t, CoordinatorOptions{
		Workers: workerSpecs(t, ""), CheckpointPath: path,
	})
	got, err := ratio.RunSharded(context.Background(), c2, microReq(), 24, 4)
	if err != nil {
		t.Fatalf("phase 2 RunSharded: %v", err)
	}
	want := microBaseline(t, 24)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed estimate differs from sequential Run:\n got  %+v\n want %+v", got, want)
	}
	st := c2.Stats()
	if st.CheckpointHits != 3 {
		t.Errorf("CheckpointHits = %d, want 3", st.CheckpointHits)
	}
	if st.ChunksExecuted != 3 {
		t.Errorf("ChunksExecuted = %d, want 3", st.ChunksExecuted)
	}
}

// TestLocalFallbackIdentity exercises graceful degradation: when no worker
// slot is reachable the coordinator executes chunks in process — through
// the same encoded specs a worker would receive — and the estimate is
// still byte-identical.
func TestLocalFallbackIdentity(t *testing.T) {
	const runs = 12
	want := microBaseline(t, runs)
	c := newTestCoordinator(t, CoordinatorOptions{
		Workers: []WorkerSpec{
			{Cmd: []string{"/nonexistent/worker-for-shard-test"}},
			{Cmd: []string{"/nonexistent/worker-for-shard-test"}},
		},
		MaxRespawns: 1,
	})
	got, err := ratio.RunSharded(context.Background(), c, microReq(), runs, 4)
	if err != nil {
		t.Fatalf("RunSharded: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("local-fallback estimate differs from sequential Run:\n got  %+v\n want %+v", got, want)
	}
	st := c.Stats()
	if st.LocalChunks != 3 {
		t.Errorf("LocalChunks = %d, want 3", st.LocalChunks)
	}
	if st.Excluded != 2 {
		t.Errorf("Excluded = %d, want 2", st.Excluded)
	}
}

// TestZeroWorkersRunsLocally: a coordinator configured with no workers at
// all serves chunks in process from the start.
func TestZeroWorkersRunsLocally(t *testing.T) {
	const runs = 8
	want := microBaseline(t, runs)
	c := newTestCoordinator(t, CoordinatorOptions{})
	got, err := ratio.RunSharded(context.Background(), c, microReq(), runs, 4)
	if err != nil {
		t.Fatalf("RunSharded: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("no-worker estimate differs from sequential Run:\n got  %+v\n want %+v", got, want)
	}
	if st := c.Stats(); st.LocalChunks != 2 {
		t.Errorf("LocalChunks = %d, want 2", st.LocalChunks)
	}
}

func TestShardedTCPWorkers(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	go ServeTCP(ln, ServeOptions{HeartbeatEvery: 50 * time.Millisecond})

	const runs = 16
	want := microBaseline(t, runs)
	addr := ln.Addr().String()
	c := newTestCoordinator(t, CoordinatorOptions{
		Workers: []WorkerSpec{{Addr: addr}, {Addr: addr}},
	})
	got, err := ratio.RunSharded(context.Background(), c, microReq(), runs, 4)
	if err != nil {
		t.Fatalf("RunSharded over TCP: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("TCP sharded estimate differs from sequential Run:\n got  %+v\n want %+v", got, want)
	}
}

// TestShardedHuntMatchesHunt: a hunt sharded over two worker processes
// must reproduce adversary.HuntRange byte-for-byte, including the winning
// sequence and its provenance.
func TestShardedHuntMatchesHunt(t *testing.T) {
	req := HuntRequest{
		Cfg:    switchsim.Config{Inputs: 2, Outputs: 2, InputBuf: 2, OutputBuf: 2, CrossBuf: 1, Speedup: 1},
		Policy: "gm", Judge: "exactunit",
		Search: adversary.SearchOptions{
			Inputs: 2, Outputs: 2, MaxSlots: 4, MaxPackets: 5, MaxValue: 1,
			Iterations: 60, Seed: 11, Restarts: 5,
		},
	}
	eval, err := HuntEval(req.Cfg, req.Crossbar, req.Policy, req.Judge)
	if err != nil {
		t.Fatalf("HuntEval: %v", err)
	}
	want := adversary.HuntRange(req.Search, eval, 0, max(1, req.Search.Restarts))

	c := newTestCoordinator(t, CoordinatorOptions{Workers: workerSpecs(t, "", "")})
	got, err := c.Hunt(context.Background(), req, 2)
	if err != nil {
		t.Fatalf("Hunt: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sharded hunt differs from adversary.HuntRange:\n got  %+v\n want %+v", got, want)
	}
}

// TestErrorAttributionParity is satellite 3: a Judge or Alg injected to
// fail on one specific seed's sequence must surface the identical error —
// same text, same seed — from Run, RunParallel (any workers), RunFleet
// (any batch) and RunSharded (real worker subprocesses, where the batched
// fleet rejection must fall back to pin the true failing seed).
func TestErrorAttributionParity(t *testing.T) {
	const baseSeed, runs = 100, 10
	const targetSeed = baseSeed + 6
	rng := rand.New(rand.NewSource(targetSeed))
	seq := microGen.Generate(rng, microCfg.Inputs, microCfg.Outputs, microCfg.Slots)
	fp := SequenceFingerprint(seq)
	for k := int64(0); k < runs; k++ {
		if s := baseSeed + k; s != targetSeed {
			other := microGen.Generate(rand.New(rand.NewSource(s)), microCfg.Inputs, microCfg.Outputs, microCfg.Slots)
			if SequenceFingerprint(other) == fp {
				t.Fatalf("fingerprint collision between seeds %d and %d", s, targetSeed)
			}
		}
	}

	cases := []struct {
		name, policy, judge, wantErr string
	}{
		{
			name:    "failing-policy",
			policy:  fmt.Sprintf("failpolicy(fp=%d)", fp),
			judge:   "exactunit",
			wantErr: fmt.Sprintf("ratio: seed %d: policy run: injected policy failure (fp=%d)", targetSeed, fp),
		},
		{
			name:    "failing-judge",
			policy:  "gm",
			judge:   fmt.Sprintf("failjudge(fp=%d)", fp),
			wantErr: fmt.Sprintf("ratio: seed %d: offline optimum: injected judge failure (fp=%d)", targetSeed, fp),
		},
	}
	coord := newTestCoordinator(t, CoordinatorOptions{Workers: workerSpecs(t, "", "")})
	ctx := context.Background()
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			alg, fleet, err := ResolvePolicy(tc.policy, false)
			if err != nil {
				t.Fatalf("ResolvePolicy: %v", err)
			}
			judge, err := ResolveJudge(tc.judge, false)
			if err != nil {
				t.Fatalf("ResolveJudge: %v", err)
			}
			backends := map[string]func() error{
				"Run": func() error {
					_, err := ratio.Run(ctx, microCfg, alg, judge, microGen, baseSeed, runs)
					return err
				},
				"RunParallel": func() error {
					_, err := ratio.RunParallel(ctx, microCfg, alg, judge, microGen, baseSeed, runs, 3)
					return err
				},
				"RunFleet": func() error {
					_, err := ratio.RunFleet(ctx, microCfg, fleet, judge, microGen, baseSeed, runs, 2, 4)
					return err
				},
				"RunSharded": func() error {
					req := ratio.ChunkRequest{
						Cfg: microCfg, Policy: tc.policy, Judge: tc.judge,
						Gen: microGen, BaseSeed: baseSeed,
					}
					_, err := ratio.RunSharded(ctx, coord, req, runs, 3)
					return err
				},
			}
			for name, run := range backends {
				err := run()
				if err == nil {
					t.Errorf("%s: no error, want %q", name, tc.wantErr)
					continue
				}
				if err.Error() != tc.wantErr {
					t.Errorf("%s error = %q, want %q", name, err.Error(), tc.wantErr)
				}
			}
		})
	}
}

// TestChunkErrorNotRetried: deterministic chunk failures (an unknown
// policy spec) must fail immediately, not burn the retry budget.
func TestChunkErrorNotRetried(t *testing.T) {
	c := newTestCoordinator(t, CoordinatorOptions{Workers: workerSpecs(t, "")})
	req := microReq()
	req.Policy = "no-such-policy"
	_, err := ratio.RunSharded(context.Background(), c, req, 4, 4)
	if err == nil {
		t.Fatal("no error for unknown policy spec")
	}
	if st := c.Stats(); st.Retries != 0 {
		t.Errorf("Retries = %d, want 0 (deterministic failures are terminal)", st.Retries)
	}
}

func TestCoordinatorClosedRejectsChunks(t *testing.T) {
	c := newTestCoordinator(t, CoordinatorOptions{})
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	_, err := c.RatioChunk(context.Background(), func() ratio.ChunkRequest {
		r := microReq()
		r.K1 = 2
		return r
	}())
	if err == nil {
		t.Fatal("RatioChunk on closed coordinator succeeded")
	}
}

func TestCoordinatorRejectsBadWorkerSpec(t *testing.T) {
	for _, ws := range []WorkerSpec{{}, {Cmd: []string{"x"}, Addr: "y"}} {
		if _, err := NewCoordinator(CoordinatorOptions{Workers: []WorkerSpec{ws}}); err == nil {
			t.Errorf("NewCoordinator accepted spec %+v", ws)
		}
	}
}

// TestContextCancelPromptlyAborts: a cancelled context must abort a
// sharded run with the context's error even while workers are unreachable
// and chunks are stuck in retry loops.
func TestContextCancelPromptlyAborts(t *testing.T) {
	c := newTestCoordinator(t, CoordinatorOptions{
		Workers:     []WorkerSpec{{Cmd: []string{"/nonexistent/worker-for-shard-test"}}},
		MaxRespawns: 1000, // keep the slot retrying so nothing ever executes
		RetryBase:   time.Second,
		RetryMax:    time.Second,
	})
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := ratio.RunSharded(ctx, c, microReq(), 8, 4)
		errCh <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunSharded did not return after cancel")
	}
}
