package ratio

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"qswitch/internal/core"
	"qswitch/internal/obs"
	"qswitch/internal/offline"
	"qswitch/internal/packet"
	"qswitch/internal/stats"
	"qswitch/internal/switchsim"
)

// seqBackends returns one ChunkEvaluator per backend engine, all
// evaluating the same (cfg, gm, exact-unit judge, gen, baseSeed) stream.
func seqBackends(cfg switchsim.Config, gen packet.Generator, baseSeed int64) map[string]func() ChunkEvaluator {
	alg := CIOQAlg(func() switchsim.CIOQPolicy { return &core.GM{} })
	fleet := CIOQFleetAlg(func() switchsim.CIOQPolicy { return &core.GM{} })
	return map[string]func() ChunkEvaluator{
		"scalar": func() ChunkEvaluator { return ScalarChunks(cfg, alg, ExactUnitCIOQ, gen, baseSeed) },
		"fleet":  func() ChunkEvaluator { return FleetChunks(cfg, fleet, ExactUnitCIOQ, gen, baseSeed, 5) },
		"sharded": func() ChunkEvaluator {
			return ShardedChunks(gmFleetSvc(nil), ChunkRequest{Cfg: cfg, Gen: gen, BaseSeed: baseSeed})
		},
	}
}

// TestSequentialDisabledTargetIdentity: with the target disabled,
// RunSequential over any backend at any chunk size is byte-identical to
// Run over the full budget.
func TestSequentialDisabledTargetIdentity(t *testing.T) {
	cfg := microCfg()
	cfg.Slots = 4
	gen := packet.Bernoulli{Load: 1.0}
	const baseSeed, runs = 30, 12
	ctx := context.Background()

	want, err := Run(ctx, cfg, CIOQAlg(func() switchsim.CIOQPolicy { return &core.GM{} }),
		ExactUnitCIOQ, gen, baseSeed, runs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for name, mk := range seqBackends(cfg, gen, baseSeed) {
		for _, chunk := range []int{1, 3, 5, 16, 100} {
			est, rep, err := RunSequential(ctx, mk(), SequentialOptions{Chunk: chunk, MaxRuns: runs})
			if err != nil {
				t.Fatalf("%s chunk=%d: %v", name, chunk, err)
			}
			if !reflect.DeepEqual(est, want) {
				t.Errorf("%s chunk=%d: estimate differs from Run:\n got %+v\nwant %+v", name, chunk, est, want)
			}
			if rep.Seeds != runs || rep.TargetMet {
				t.Errorf("%s chunk=%d: report = %+v, want %d seeds and target not met", name, chunk, rep, runs)
			}
		}
	}
}

// TestSequentialStopIsBackendInvariant: with a reachable target, every
// backend stops at the same chunk boundary with a byte-identical
// estimate, and the stopped seed count is a multiple of the chunk size.
func TestSequentialStopIsBackendInvariant(t *testing.T) {
	cfg := microCfg()
	cfg.Slots = 4
	gen := packet.Bernoulli{Load: 1.0}
	const baseSeed, budget, chunk = 9, 96, 8
	tgt := stats.Target{AbsWidth: 0.25}
	ctx := context.Background()

	var wantEst Estimate
	var wantRep SeqReport
	first := true
	for name, mk := range seqBackends(cfg, gen, baseSeed) {
		est, rep, err := RunSequential(ctx, mk(), SequentialOptions{Target: tgt, Chunk: chunk, MaxRuns: budget})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !rep.TargetMet {
			t.Fatalf("%s: target %v not met within %d seeds (hw=%v) — test workload mistuned",
				name, tgt, budget, rep.HalfWidth)
		}
		if rep.Seeds >= budget {
			t.Errorf("%s: stopped at the full budget; target should bind earlier", name)
		}
		if rep.Seeds%chunk != 0 {
			t.Errorf("%s: stopped at %d seeds, not a chunk multiple of %d", name, rep.Seeds, chunk)
		}
		if first {
			wantEst, wantRep, first = est, rep, false
			continue
		}
		if !reflect.DeepEqual(est, wantEst) || rep != wantRep {
			t.Errorf("%s: stopped run differs:\n got (%+v, %+v)\nwant (%+v, %+v)", name, est, rep, wantEst, wantRep)
		}
	}
}

// TestSequentialImpossibleTargetRunsBudget: an unreachable target spends
// the whole budget and still returns the fixed-N estimate.
func TestSequentialImpossibleTargetRunsBudget(t *testing.T) {
	cfg := microCfg()
	cfg.Slots = 4
	gen := packet.Bernoulli{Load: 2.0} // dense traffic: ratios vary, hw stays > 0
	ctx := context.Background()
	const baseSeed, runs = 9, 16

	want, err := Run(ctx, cfg, CIOQAlg(func() switchsim.CIOQPolicy { return &core.GM{} }),
		ExactUnitCIOQ, gen, baseSeed, runs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	est, rep, err := RunSequential(ctx,
		seqBackends(cfg, gen, baseSeed)["scalar"](),
		SequentialOptions{Target: stats.Target{AbsWidth: 1e-12}, Chunk: 4, MaxRuns: runs})
	if err != nil {
		t.Fatalf("RunSequential: %v", err)
	}
	if rep.TargetMet || rep.Seeds != runs {
		t.Errorf("report = %+v, want full budget %d and target unmet", rep, runs)
	}
	if !reflect.DeepEqual(est, want) {
		t.Errorf("estimate differs from Run:\n got %+v\nwant %+v", est, want)
	}
}

// TestSequentialErrorIdentity: a failing seed surfaces the exact same
// "ratio: seed N" error text Run reports, at any chunk size.
func TestSequentialErrorIdentity(t *testing.T) {
	cfg := microCfg()
	cfg.Slots = 4
	gen := packet.Bernoulli{Load: 1.0}
	const baseSeed, runs, failIdx = 50, 10, 7
	failSeed := int64(baseSeed + failIdx)
	boom := errors.New("boom")
	alg := func(c switchsim.Config, seq packet.Sequence) (int64, error) {
		if fingerprintSeedMatch(c, gen, failSeed, seq) {
			return 0, boom
		}
		return CIOQAlg(func() switchsim.CIOQPolicy { return &core.GM{} })(c, seq)
	}
	want := fmt.Sprintf("ratio: seed %d: policy run: boom", failSeed)
	for _, chunk := range []int{1, 3, 10} {
		_, _, err := RunSequential(context.Background(),
			ScalarChunks(cfg, alg, ExactUnitCIOQ, gen, baseSeed),
			SequentialOptions{Chunk: chunk, MaxRuns: runs})
		if err == nil || err.Error() != want {
			t.Errorf("chunk=%d: error = %v, want %q", chunk, err, want)
		}
	}
}

// TestSequentialPreCancelled: a cancelled context aborts before any seed.
func TestSequentialPreCancelled(t *testing.T) {
	cfg := microCfg()
	cfg.Slots = 4
	gen := packet.Bernoulli{Load: 1.0}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := RunSequential(ctx, seqBackends(cfg, gen, 1)["scalar"](), SequentialOptions{MaxRuns: 8})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// FuzzSequentialMergeIdentity fuzzes the driver's merge identity over the
// scalar backend: for any (baseSeed, chunk, runs, load) a disabled target
// must reproduce Run byte-for-byte, and for any worker count (1-4) and
// optional target the pooled RunSequentialPool must return the Estimate,
// SeqReport and error text of the one-worker RunSequential.
func FuzzSequentialMergeIdentity(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(6), uint8(10), uint8(1), uint8(0))
	f.Add(int64(30), uint8(3), uint8(12), uint8(10), uint8(3), uint8(0))
	f.Add(int64(7), uint8(16), uint8(9), uint8(4), uint8(0), uint8(40))
	f.Add(int64(-5), uint8(5), uint8(20), uint8(15), uint8(2), uint8(9))
	f.Fuzz(func(t *testing.T, baseSeed int64, chunk, runs, load, workers, tgt uint8) {
		cfg := microCfg()
		cfg.Slots = 4
		nRuns := int(runs%24) + 1
		gen := packet.Bernoulli{Load: float64(load%20+1) / 10}
		alg := CIOQAlg(func() switchsim.CIOQPolicy { return &core.GM{} })
		mint := func() ChunkEvaluator { return ScalarChunks(cfg, alg, ExactUnitCIOQ, gen, baseSeed) }
		ctx := context.Background()

		fixed := SequentialOptions{Chunk: int(chunk % 40), MaxRuns: nRuns}
		want, wantErr := Run(ctx, cfg, alg, ExactUnitCIOQ, gen, baseSeed, nRuns)
		got, rep, gotErr := RunSequential(ctx, mint(), fixed)
		if !sameErr(wantErr, gotErr) {
			t.Fatalf("error mismatch: Run=%v sequential=%v", wantErr, gotErr)
		}
		if wantErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("estimate mismatch:\n got %+v\nwant %+v", got, want)
		}
		if wantErr == nil && (rep.Seeds != nRuns || rep.TargetMet) {
			t.Fatalf("report = %+v, want %d seeds, target unmet", rep, nRuns)
		}

		opts := fixed
		if tgt != 0 {
			opts.Target = stats.Target{AbsWidth: float64(tgt) / 128, MinSamples: 2}
		}
		one, oneRep, oneErr := RunSequential(ctx, mint(), opts)
		var pooled Estimate
		var pooledRep SeqReport
		var pooledErr error
		withProcs(int(workers%4)+1, func() { pooled, pooledRep, pooledErr = RunSequentialPool(ctx, mint, opts) })
		if !sameErr(oneErr, pooledErr) || !reflect.DeepEqual(pooled, one) || pooledRep != oneRep {
			t.Fatalf("workers=%d: pooled run differs from one worker:\n got (%+v, %+v, %v)\nwant (%+v, %+v, %v)",
				workers%4+1, pooled, pooledRep, pooledErr, one, oneRep, oneErr)
		}
	})
}

// sameErr reports whether two errors are both nil or carry the same text.
func sameErr(a, b error) bool {
	return (a == nil) == (b == nil) && (a == nil || a.Error() == b.Error())
}

// withProcs runs f with GOMAXPROCS set to n, the worker count of
// RunSequentialPool, and restores the old setting.
func withProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// TestSequentialPoolJudgeErrorIdentity: a judge failing on two seeds
// fails a pooled run at the lower one, with the text one worker reports,
// however the chunks are dealt to 1 or 4 workers.
func TestSequentialPoolJudgeErrorIdentity(t *testing.T) {
	cfg := microCfg()
	cfg.Slots = 4
	gen := packet.Bernoulli{Load: 1.0}
	const baseSeed, runs = 50, 20
	judge := func() Judge {
		return JudgeFunc(func(c switchsim.Config, seq packet.Sequence) (int64, error) {
			for _, k := range []int64{5, 13} {
				if fingerprintSeedMatch(c, gen, baseSeed+k, seq) {
					return 0, fmt.Errorf("boom at %d", k)
				}
			}
			return offline.ExactUnitCIOQ(c, seq)
		})
	}
	alg := CIOQAlg(func() switchsim.CIOQPolicy { return &core.GM{} })
	mint := func() ChunkEvaluator { return ScalarChunks(cfg, alg, judge, gen, baseSeed) }
	want := fmt.Sprintf("ratio: seed %d: offline optimum: boom at 5", baseSeed+5)
	for _, chunk := range []int{1, 3, 6, runs} {
		_, wantRep, err := RunSequential(context.Background(), mint(), SequentialOptions{Chunk: chunk, MaxRuns: runs})
		if err == nil || err.Error() != want {
			t.Fatalf("chunk=%d: one-worker error = %v, want %q", chunk, err, want)
		}
		for _, procs := range []int{1, 4} {
			var rep SeqReport
			withProcs(procs, func() {
				_, rep, err = RunSequentialPool(context.Background(), mint, SequentialOptions{Chunk: chunk, MaxRuns: runs})
			})
			if err == nil || err.Error() != want || rep != wantRep {
				t.Errorf("chunk=%d workers=%d: (%v, %+v), want (%q, %+v)", chunk, procs, err, rep, want, wantRep)
			}
		}
	}
}

// TestSequentialProbed pins the probe contract on the sequential engine:
// with SeqProbes installed the estimate and stopping report stay
// byte-identical (the per-chunk half-width telemetry is observational
// only), while the registry records the run's chunks, seeds and final
// half-width. The fixed-N entry points share the driver and its probes:
// Run flushes its one chunk, RunFleet and RunSharded one per chunk. It is
// also the probed estimation CI's race job runs.
func TestSequentialProbed(t *testing.T) {
	cfg := microCfg()
	cfg.Slots = 4
	gen := packet.Bernoulli{Load: 1.0}
	const baseSeed, budget, chunk = 30, 24, 5
	tgt := stats.Target{AbsWidth: 0.04, Confidence: 0.95}
	ctx := context.Background()
	mk := seqBackends(cfg, gen, baseSeed)["scalar"]

	wantEst, wantRep, err := RunSequential(ctx, mk(), SequentialOptions{Target: tgt, Chunk: chunk, MaxRuns: budget})
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	SetProbes(obs.NewSeqProbes(reg))
	defer SetProbes(nil)
	gotEst, gotRep, err := RunSequential(ctx, mk(), SequentialOptions{Target: tgt, Chunk: chunk, MaxRuns: budget})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotEst, wantEst) || !reflect.DeepEqual(gotRep, wantRep) {
		t.Errorf("probes changed the sequential result:\n got %+v / %+v\nwant %+v / %+v", gotEst, gotRep, wantEst, wantRep)
	}

	snap := reg.Snapshot()
	if snap[obs.MetricSeqRuns] != 1 {
		t.Errorf("seq runs = %v, want 1", snap[obs.MetricSeqRuns])
	}
	wantChunks := float64((wantRep.Seeds + chunk - 1) / chunk)
	if snap[obs.MetricSeqChunks] != wantChunks {
		t.Errorf("seq chunks = %v, want %v", snap[obs.MetricSeqChunks], wantChunks)
	}
	if snap[obs.MetricSeqSeedsTotal] != float64(wantRep.Seeds) {
		t.Errorf("seq seeds = %v, want %d", snap[obs.MetricSeqSeedsTotal], wantRep.Seeds)
	}
	if snap[obs.MetricSeqBudget] != budget {
		t.Errorf("seq budget = %v, want %d", snap[obs.MetricSeqBudget], budget)
	}
	if hw := snap[obs.MetricSeqHalfWidth]; wantRep.TargetMet && hw > tgt.AbsWidth {
		t.Errorf("final half-width gauge = %v after a met %v target", hw, tgt.AbsWidth)
	}
	if snap[obs.MetricSeqChunkSeconds+"_count"] != wantChunks {
		t.Errorf("chunk latency histogram count = %v, want %v", snap[obs.MetricSeqChunkSeconds+"_count"], wantChunks)
	}

	SetProbes(nil)

	alg := CIOQAlg(func() switchsim.CIOQPolicy { return &core.GM{} })
	fleet := CIOQFleetAlg(func() switchsim.CIOQPolicy { return &core.GM{} })
	gen = packet.Bernoulli{Load: 2.0} // ratios vary, so the half-width is positive
	req := ChunkRequest{Cfg: cfg, Gen: gen, BaseSeed: baseSeed}
	for _, b := range []struct {
		name  string
		chunk int // seeds per chunk the driver folds
		run   func() (Estimate, error)
	}{
		{"Run", budget, func() (Estimate, error) { return Run(ctx, cfg, alg, ExactUnitCIOQ, gen, baseSeed, budget) }},
		{"RunFleet", chunk, func() (Estimate, error) {
			return RunFleet(ctx, cfg, fleet, ExactUnitCIOQ, gen, baseSeed, budget, 2, chunk)
		}},
		{"RunSharded", chunk, func() (Estimate, error) { return RunSharded(ctx, gmFleetSvc(nil), req, budget, chunk) }},
	} {
		want, err := b.run()
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		reg := obs.NewRegistry()
		SetProbes(obs.NewSeqProbes(reg))
		got, err := b.run()
		SetProbes(nil)
		if err != nil {
			t.Fatalf("%s probed: %v", b.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: probes changed the estimate:\n got %+v\nwant %+v", b.name, got, want)
		}
		snap := reg.Snapshot()
		chunks := float64((budget + b.chunk - 1) / b.chunk)
		for metric, want := range map[string]float64{
			obs.MetricSeqRuns:                    1,
			obs.MetricSeqChunks:                  chunks,
			obs.MetricSeqChunkSeconds + "_count": chunks,
			obs.MetricSeqSeedsTotal:              budget,
			obs.MetricSeqSeeds:                   budget,
			obs.MetricSeqBudget:                  budget,
		} {
			if snap[metric] != want {
				t.Errorf("%s: %s = %v, want %v", b.name, metric, snap[metric], want)
			}
		}
		if hw := snap[obs.MetricSeqHalfWidth]; hw <= 0 {
			t.Errorf("%s: half-width gauge = %v, want the final CI half-width", b.name, hw)
		}
	}
}
