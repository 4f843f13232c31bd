// Command qswitchctl is the sharded experiment service: its coordinator
// fans the Monte-Carlo experiments (E1–E4) and adversary hunts out over a
// fleet of workers with retries, supervision and crash-safe
// checkpointing, and merges results that are byte-identical to a
// single-process run; with -serve it is one of those workers.
//
// Usage:
//
//	qswitchctl -workers 4 -run e1,e2 -quick            # spawn 4 local workers
//	qswitchctl -connect :7410,:7411 -run e3            # use running qswitchctl -serve -listen workers
//	qswitchctl -workers 4 -run e1 -checkpoint e1.ckpt  # kill it, rerun: resumes
//	qswitchctl -workers 2 -chaos seed=7,kill=0.1 -run e1
//	qswitchctl -workers 4 -hunt "pg" -huntjudge exactweighted -maxvalue 8 -restarts 16
//	qswitchctl -serve -listen 127.0.0.1:7410 -v        # a TCP worker for -connect
//
// With -workers N the coordinator re-executes its own binary in worker
// mode (-serve plus -chaos, nothing else), so no other binary is needed
// on PATH; -chaos applies to the spawned workers. A run with a
// -checkpoint file can be killed at any point and rerun with the same
// arguments: completed chunks are replayed from the log, only the rest
// execute.
//
// A worker (-serve) executes the chunk specs a coordinator sends it —
// seed-range slices of ratio estimations, restart-range slices of hunts —
// over stdio, or over TCP with -listen, heartbeating every -heartbeat
// while it computes. Its -chaos flag enables deterministic fault
// injection (see internal/shard/faultinject): per chunk request the
// worker may crash, hang silently, delay its reply, or flip a bit in its
// response frame after the checksum is computed. Chunks are deterministic
// and retried, so chaos never changes merged results. The observability
// flags (-metrics-addr, -cpuprofile, -memprofile, -trace) expose either
// mode's engine probes, chunk counters and pprof endpoints while it runs;
// see internal/obs.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"qswitch/internal/adversary"
	"qswitch/internal/experiments"
	"qswitch/internal/obs"
	"qswitch/internal/obs/wire"
	"qswitch/internal/shard"
	"qswitch/internal/shard/faultinject"
	"qswitch/internal/stats"
	"qswitch/internal/switchsim"
)

func main() {
	var (
		serve      = flag.Bool("serve", false, "worker mode: serve the shard protocol on stdio, or on TCP with -listen (what -workers spawns)")
		listen     = flag.String("listen", "", "with -serve: TCP address to serve on (default: serve stdin/stdout)")
		heartbeat  = flag.Duration("heartbeat", 0, "with -serve: heartbeat period while executing a chunk (default 250ms)")
		workers    = flag.Int("workers", 0, "spawn this many local worker processes")
		connect    = flag.String("connect", "", "comma-separated TCP addresses of running qswitchctl -serve -listen workers")
		run        = flag.String("run", "", "comma-separated experiment ids to run sharded (of e1,e2,e3,e4)")
		quick      = flag.Bool("quick", false, "reduced workloads")
		seed       = flag.Int64("seed", 1, "base RNG seed")
		chunk      = flag.Int("chunk", 0, "seeds per chunk (0 selects the default)")
		checkpoint = flag.String("checkpoint", "", "checkpoint log path; completed chunks survive coordinator crashes")
		chaos      = flag.String("chaos", "", "fault-injection spec for spawned workers (with -serve: for this worker), e.g. seed=7,kill=0.05,hang=0.02,delay=0.2,corrupt=0.1,maxdelayms=20")
		timeout    = flag.Duration("chunk-timeout", 0, "per-chunk attempt deadline (default 2m)")
		hbTimeout  = flag.Duration("heartbeat-timeout", 0, "max silence before a worker is presumed dead (default 10s)")
		ciTarget   = flag.Float64("ci-target", 0, "sequential sweeps: stop each ratio estimation once the Student-t CI half-width on the mean ratio is <= this (0 disables); seed chunks keep flowing through the shard service until then")
		confidence = flag.Float64("confidence", 0.95, "confidence level for -ci-target stopping and hunt verdicts")
		hunt       = flag.String("hunt", "", "policy spec to hunt adversarially instead of running experiments")
		huntJudge  = flag.String("huntjudge", "exactunit", "judge spec for -hunt")
		crossbar   = flag.Bool("crossbar", false, "hunt against the buffered-crossbar model")
		restarts   = flag.Int("restarts", 8, "hunt restarts (sharded across workers)")
		iterations = flag.Int("iterations", 400, "hunt hill-climb iterations per restart")
		maxValue   = flag.Int64("maxvalue", 1, "hunt max packet value (1 = unit)")
		verbose    = flag.Bool("v", false, "log supervision events to stderr (with -serve: connection errors and chaos events)")
		status     = flag.Bool("status", false, "print a live per-worker health table to stderr while running")
		events     = flag.String("events", "", "append structured JSONL run events to this file")
	)
	obsCLI := wire.Flags(flag.CommandLine, "trace")
	flag.Parse()

	if *serve {
		serveWorker(obsCLI, *listen, *chaos, *heartbeat, *verbose)
		return
	}
	if *listen != "" || *heartbeat != 0 {
		fmt.Fprintln(os.Stderr, "qswitchctl: -listen and -heartbeat need -serve")
		os.Exit(2)
	}

	sess, err := obsCLI.Start()
	if err != nil {
		fatal(err)
	}
	defer sess.Close()
	// fatal skips the deferred closes; fail closes the session first, so a
	// failed run still writes its profiles.
	fail := func(err error) {
		sess.Close()
		fatal(err)
	}
	var runLog *slog.Logger
	if *events != "" {
		f, err := os.OpenFile(*events, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		runLog = obs.NewRunLog(f)
		runLog.Info("run start", "args", strings.Join(os.Args[1:], " "))
	}

	opts := shard.CoordinatorOptions{
		ChunkTimeout:     *timeout,
		HeartbeatTimeout: *hbTimeout,
		CheckpointPath:   *checkpoint,
		Metrics:          sess.Reg,
	}
	if *verbose {
		logger := log.New(os.Stderr, "qswitchctl: ", log.Ltime|log.Lmicroseconds)
		opts.Logf = logger.Printf
	}
	exe, err := os.Executable()
	if err != nil {
		fail(fmt.Errorf("cannot locate own binary for -workers: %w", err))
	}
	if *chaos != "" {
		// Fail fast on a bad spec here rather than in every worker.
		if _, err := faultinject.ParseSpec(*chaos); err != nil {
			fail(err)
		}
	}
	for i := 0; i < *workers; i++ {
		cmd := []string{exe, "-serve"}
		if *chaos != "" {
			cmd = append(cmd, "-chaos", perWorkerChaos(*chaos, i))
		}
		opts.Workers = append(opts.Workers, shard.WorkerSpec{Cmd: cmd})
	}
	if *connect != "" {
		for _, addr := range strings.Split(*connect, ",") {
			opts.Workers = append(opts.Workers, shard.WorkerSpec{Addr: strings.TrimSpace(addr)})
		}
	}

	coord, err := shard.NewCoordinator(opts)
	if err != nil {
		fail(err)
	}
	defer coord.Close()

	if *status {
		stop := make(chan struct{})
		defer close(stop)
		go statusLoop(coord, stop)
	}

	start := time.Now()
	switch {
	case *hunt != "":
		err = runHunt(coord, *hunt, *huntJudge, *crossbar, *restarts, *iterations, *maxValue, *seed, *chunk, *confidence)
	case *run != "":
		err = runExperiments(coord, sess.Reg, *run, *quick, *seed, *chunk, *ciTarget, *confidence)
	default:
		fmt.Fprintln(os.Stderr, "qswitchctl: nothing to do; use -run or -hunt")
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		coord.Close() // and with it the checkpoint log
		fail(err)
	}
	st := coord.Stats()
	fmt.Printf("\n%s elapsed — chunks: %d executed, %d from checkpoint, %d local; retries: %d, respawns: %d, excluded workers: %d\n",
		time.Since(start).Round(time.Millisecond),
		st.ChunksExecuted, st.CheckpointHits, st.LocalChunks, st.Retries, st.Respawns, st.Excluded)
	if runLog != nil {
		obs.LogSnapshot(runLog, "run complete", sess.Reg)
	}
}

// serveWorker is worker mode: it serves chunk requests on stdio, or on
// TCP when listen is set, until the coordinator hangs up.
func serveWorker(obsCLI *wire.CLI, listen, chaos string, heartbeat time.Duration, verbose bool) {
	inj, err := faultinject.ParseSpec(chaos)
	if err != nil {
		fatal(err)
	}
	obsCLI.Progress = nil // a worker has no foreground run to report on
	sess, err := obsCLI.Start()
	if err != nil {
		fatal(err)
	}
	opts := shard.ServeOptions{Chaos: inj, HeartbeatEvery: heartbeat, Metrics: sess.Reg}
	if verbose {
		logger := log.New(os.Stderr, fmt.Sprintf("qswitchctl[%d]: ", os.Getpid()), log.Ltime|log.Lmicroseconds)
		opts.Logf = logger.Printf
	}
	if listen == "" {
		err = shard.ServeStdio(opts)
	} else if ln, lerr := net.Listen("tcp", listen); lerr != nil {
		err = lerr
	} else {
		fmt.Fprintf(os.Stderr, "qswitchctl: serving on %s\n", ln.Addr())
		// SIGINT or SIGTERM closes the listener, so that the session below
		// still writes the profiles.
		stop := make(chan os.Signal, 1)
		signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
		go func() { <-stop; ln.Close() }()
		if err = shard.ServeTCP(ln, opts); errors.Is(err, net.ErrClosed) {
			err = nil
		}
	}
	if cerr := sess.Close(); cerr != nil {
		fmt.Fprintf(os.Stderr, "qswitchctl: %v\n", cerr)
	}
	if err != nil {
		fatal(err)
	}
}

// statusLoop renders the coordinator's per-worker health table to stderr
// until stop closes — the qswitchctl -status live view.
func statusLoop(coord *shard.Coordinator, stop <-chan struct{}) {
	t := time.NewTicker(2 * time.Second)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			for _, h := range coord.Health() {
				beat := "-"
				if !h.LastBeat.IsZero() {
					beat = time.Since(h.LastBeat).Round(100*time.Millisecond).String() + " ago"
				}
				fmt.Fprintf(os.Stderr, "qswitchctl: worker %d [%s] chunks=%d retries=%d respawns=%d %.1f units/s last=%.0fms beat=%s\n",
					h.Worker, h.State, h.ChunksDone, h.Retries, h.Respawns,
					h.Stats.UnitsPerSec, h.Stats.LastChunkMs, beat)
			}
		}
	}
}

// runExperiments executes the requested ratio experiments with their
// Monte-Carlo estimations sharded through the coordinator; a positive
// ciTarget makes each estimation sequential, issuing seed chunks to the
// workers only until its CI half-width clears the target.
func runExperiments(coord *shard.Coordinator, reg *obs.Registry, ids string, quick bool, seed int64, chunk int,
	ciTarget, confidence float64) error {
	opts := experiments.Options{
		Quick: quick, Seed: seed, Shard: coord, ShardChunk: chunk,
		CITarget: stats.Target{AbsWidth: ciTarget, Confidence: confidence},
		SeqChunk: chunk, Probes: reg,
	}
	for _, id := range strings.Split(ids, ",") {
		exp, ok := experiments.ByID(strings.TrimSpace(id))
		if !ok {
			return fmt.Errorf("unknown experiment %q", id)
		}
		tables, err := exp.Run(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", exp.ID, err)
		}
		for _, tb := range tables {
			fmt.Println()
			tb.Render(os.Stdout)
		}
	}
	return nil
}

// runHunt shards an adversary hunt's restarts across the workers and
// prints a confidence-annotated verdict alongside the witness.
func runHunt(coord *shard.Coordinator, policy, judge string, crossbar bool,
	restarts, iterations int, maxValue, seed int64, chunk int, confidence float64) error {
	cfg := switchsim.Config{Inputs: 2, Outputs: 2, InputBuf: 1, OutputBuf: 1, CrossBuf: 1, Speedup: 1}
	req := shard.HuntRequest{
		Cfg: cfg, Crossbar: crossbar, Policy: policy, Judge: judge,
		Search: adversary.SearchOptions{
			Inputs: cfg.Inputs, Outputs: cfg.Outputs, MaxSlots: 5, MaxPackets: 8,
			MaxValue: maxValue, Iterations: iterations, Seed: seed, Restarts: restarts,
		},
	}
	res, err := coord.Hunt(context.Background(), req, chunk)
	if err != nil {
		return err
	}
	fmt.Printf("hunt %s vs %s: best ratio %.4f (restart %d, %d accepted, %d tried)\n",
		policy, judge, res.Ratio, res.Restart, res.Accepted, res.Tried)
	fmt.Printf("verdict: %s\n", res.Verdict(restarts, confidence))
	for _, p := range res.Seq {
		fmt.Printf("  t=%d in=%d out=%d v=%d\n", p.Arrival, p.In, p.Out, p.Value)
	}
	return nil
}

// perWorkerChaos offsets the spec's seed by the worker index, so spawned
// workers draw independent fault schedules. Chunks are dealt to workers
// round-robin, which keeps same-seed schedules in lockstep: every worker
// would reach a kill position at nearly the same moment and a retried
// chunk would land on a worker about to fail the same way, burning the
// whole attempt budget on one correlated fault.
func perWorkerChaos(spec string, worker int) string {
	terms := strings.Split(spec, ",")
	for i, kv := range terms {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if ok && k == "seed" {
			if s, err := strconv.ParseInt(v, 10, 64); err == nil {
				terms[i] = fmt.Sprintf("seed=%d", s+int64(worker))
			}
			return strings.Join(terms, ",")
		}
	}
	// No explicit seed: ParseSpec defaults to 1, so stagger from there.
	return spec + fmt.Sprintf(",seed=%d", 1+worker)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "qswitchctl: %v\n", err)
	os.Exit(1)
}
