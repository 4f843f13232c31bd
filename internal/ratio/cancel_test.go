package ratio

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"qswitch/internal/core"
	"qswitch/internal/offline"
	"qswitch/internal/packet"
	"qswitch/internal/switchsim"
)

// fakeChunkService runs chunks in process with a fixed alg/judge (it
// ignores the spec strings), optionally failing selected chunks at the
// infrastructure level. It lets the sharded merge and attribution logic be
// tested without worker subprocesses.
type fakeChunkService struct {
	alg    FleetAlgFactory
	judge  JudgeFactory
	failK0 map[int]error // chunk K0 -> injected infrastructure error
}

func (s *fakeChunkService) RatioChunk(ctx context.Context, req ChunkRequest) ([]SeedOutcome, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err, ok := s.failK0[req.K0]; ok {
		return nil, err
	}
	return EvalChunk(req.Cfg, NewLanes(s.judge, s.alg), req.Gen, req.BaseSeed, req.K0, req.K1, nil), nil
}

func gmFleetSvc(fail map[int]error) *fakeChunkService {
	return &fakeChunkService{
		alg:    CIOQFleetAlg(func() switchsim.CIOQPolicy { return &core.GM{} }),
		judge:  ExactUnitCIOQ,
		failK0: fail,
	}
}

// TestPreCancelledContext: every backend must refuse to work under an
// already-cancelled context and return the context's error.
func TestPreCancelledContext(t *testing.T) {
	cfg := microCfg()
	cfg.Slots = 4
	alg := CIOQAlg(func() switchsim.CIOQPolicy { return &core.GM{} })
	fleet := CIOQFleetAlg(func() switchsim.CIOQPolicy { return &core.GM{} })
	gen := packet.Bernoulli{Load: 1.0}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	backends := map[string]func() error{
		"Run": func() error {
			_, err := Run(ctx, cfg, alg, ExactUnitCIOQ, gen, 1, 8)
			return err
		},
		"RunParallel": func() error {
			_, err := RunParallel(ctx, cfg, alg, ExactUnitCIOQ, gen, 1, 8, 4)
			return err
		},
		"RunFleet": func() error {
			_, err := RunFleet(ctx, cfg, fleet, ExactUnitCIOQ, gen, 1, 8, 2, 4)
			return err
		},
		"RunSharded": func() error {
			req := ChunkRequest{Cfg: cfg, Gen: gen, BaseSeed: 1}
			_, err := RunSharded(ctx, gmFleetSvc(nil), req, 8, 4)
			return err
		},
	}
	for name, run := range backends {
		if err := run(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s under cancelled ctx: err = %v, want context.Canceled", name, err)
		}
	}
}

// TestSeedErrorAttributionDeterministic: an alg failing on one seed must
// surface the identical "ratio: seed N" error from every in-process
// backend, regardless of worker count or batch size.
func TestSeedErrorAttributionDeterministic(t *testing.T) {
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
	fleet := func() FleetAlg {
		inner := CIOQFleetAlg(func() switchsim.CIOQPolicy { return &core.GM{} })()
		return func(c switchsim.Config, seqs []packet.Sequence) ([]int64, error) {
			for _, s := range seqs {
				if fingerprintSeedMatch(c, gen, failSeed, s) {
					return nil, boom
				}
			}
			return inner(c, seqs)
		}
	}

	want := fmt.Sprintf("ratio: seed %d: policy run: boom", failSeed)
	ctx := context.Background()
	check := func(name string, err error) {
		t.Helper()
		if err == nil || err.Error() != want {
			t.Errorf("%s error = %v, want %q", name, err, want)
		}
	}
	_, err := Run(ctx, cfg, alg, ExactUnitCIOQ, gen, baseSeed, runs)
	check("Run", err)
	for _, workers := range []int{2, 5} {
		_, err = RunParallel(ctx, cfg, alg, ExactUnitCIOQ, gen, baseSeed, runs, workers)
		check(fmt.Sprintf("RunParallel(workers=%d)", workers), err)
	}
	for _, batch := range []int{3, 4, 16} {
		_, err = RunFleet(ctx, cfg, fleet, ExactUnitCIOQ, gen, baseSeed, runs, 2, batch)
		check(fmt.Sprintf("RunFleet(batch=%d)", batch), err)
	}
	svc := &fakeChunkService{alg: fleet, judge: ExactUnitCIOQ}
	for _, chunk := range []int{3, 5} {
		_, err = RunSharded(ctx, svc, ChunkRequest{Cfg: cfg, Gen: gen, BaseSeed: baseSeed}, runs, chunk)
		check(fmt.Sprintf("RunSharded(chunk=%d)", chunk), err)
	}
}

// fingerprintSeedMatch reports whether seq is exactly the workload seed
// draws for cfg — the hook the failing test algs key on.
func fingerprintSeedMatch(cfg switchsim.Config, gen packet.Generator, seed int64, seq packet.Sequence) bool {
	want := generateSeq(cfg, gen, newSeedRand(), seed, nil)
	if len(want) != len(seq) {
		return false
	}
	for i := range want {
		if want[i] != seq[i] {
			return false
		}
	}
	return true
}

// TestRunShardedInfrastructureAttribution: when chunks fail at the
// infrastructure level, the reported error is a genuine injected failure
// attributed to the chunk that raised it — never a bare cancellation, and
// never an error paired with the wrong chunk index.
func TestRunShardedInfrastructureAttribution(t *testing.T) {
	cfg := microCfg()
	cfg.Slots = 4
	gen := packet.Bernoulli{Load: 1.0}
	svc := gmFleetSvc(map[int]error{
		4:  errors.New("worker pool on fire"),
		12: errors.New("also on fire"),
	})
	_, err := RunSharded(context.Background(), svc,
		ChunkRequest{Cfg: cfg, Gen: gen, BaseSeed: 1}, 16, 4)
	if err == nil {
		t.Fatal("no error from failing chunk service")
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want an injected infrastructure error, not cancellation", err)
	}
	// Whichever injected failure won the race, it must carry its own chunk's
	// index: K0=4 is chunk 1, K0=12 is chunk 3.
	got := err.Error()
	ok := (strings.Contains(got, "shard chunk 1:") && strings.Contains(got, "worker pool on fire")) ||
		(strings.Contains(got, "shard chunk 3:") && strings.Contains(got, "also on fire"))
	if !ok {
		t.Errorf("err = %q, want an injected error attributed to its own chunk", err)
	}
}

// TestRunShardedSingleFailureAttribution: with exactly one failing chunk the
// attribution is fully deterministic — that chunk's index and error.
func TestRunShardedSingleFailureAttribution(t *testing.T) {
	cfg := microCfg()
	cfg.Slots = 4
	gen := packet.Bernoulli{Load: 1.0}
	svc := gmFleetSvc(map[int]error{8: errors.New("worker pool on fire")})
	_, err := RunSharded(context.Background(), svc,
		ChunkRequest{Cfg: cfg, Gen: gen, BaseSeed: 1}, 16, 4)
	if err == nil {
		t.Fatal("no error from failing chunk service")
	}
	if !strings.Contains(err.Error(), "shard chunk 2:") || !strings.Contains(err.Error(), "worker pool on fire") {
		t.Errorf("err = %q, want chunk 2 attributed", err)
	}
}

// shortChunkService answers every chunk with one outcome too few.
type shortChunkService struct{}

func (shortChunkService) RatioChunk(_ context.Context, req ChunkRequest) ([]SeedOutcome, error) {
	return make([]SeedOutcome, req.K1-req.K0-1), nil
}

// TestShortChunkServiceFails: a chunk service that answers 4 seeds with 3
// outcomes fails the estimation with the count in the error, attributed to
// its chunk when RunSharded reports it.
func TestShortChunkServiceFails(t *testing.T) {
	req := ChunkRequest{Cfg: microCfg(), Gen: packet.Bernoulli{Load: 1.0}, BaseSeed: 1}
	const want = "chunk service returned 3 outcomes for 4 seeds"
	_, err := RunSharded(context.Background(), shortChunkService{}, req, 4, 4)
	if err == nil || err.Error() != "shard chunk 0: "+want {
		t.Errorf("RunSharded error = %v, want %q", err, "shard chunk 0: "+want)
	}
	_, _, err = RunSequential(context.Background(), ShardedChunks(shortChunkService{}, req),
		SequentialOptions{Chunk: 4, MaxRuns: 4})
	if err == nil || err.Error() != want {
		t.Errorf("RunSequential error = %v, want %q", err, want)
	}
}

// TestRunShardedMatchesRunInProcess pins the sharded merge against the
// sequential baseline using an in-process chunk service, across chunk
// sizes that do and do not divide the run count.
func TestRunShardedMatchesRunInProcess(t *testing.T) {
	cfg := microCfg()
	cfg.Slots = 5
	gen := packet.Bernoulli{Load: 1.2}
	alg := CIOQAlg(func() switchsim.CIOQPolicy { return &core.GM{} })
	want, err := Run(context.Background(), cfg, alg, ExactUnitCIOQ, gen, 9, 23)
	if err != nil {
		t.Fatal(err)
	}
	svc := gmFleetSvc(nil)
	for _, chunk := range []int{1, 4, 7, 23, 100, 0} {
		got, err := RunSharded(context.Background(), svc,
			ChunkRequest{Cfg: cfg, Gen: gen, BaseSeed: 9}, 23, chunk)
		if err != nil {
			t.Fatalf("chunk=%d: %v", chunk, err)
		}
		if got.Max != want.Max || got.Mean != want.Mean || got.CI95 != want.CI95 ||
			got.Runs != want.Runs || got.Skipped != want.Skipped || got.WorstSeed != want.WorstSeed {
			t.Errorf("chunk=%d: sharded %+v != sequential %+v", chunk, got, want)
		}
	}
}

// TestBatchFaultAttribution pins where a batch-level policy fault lands
// when no single sequence reproduces it. The FleetAlg fails every call on
// more than one sequence and no call on one, so the per-seed re-runs find
// no witness; the fault then lands on the chunk's first seed the judge
// finds eligible, and every other seed keeps its scalar outcome. Skipped
// seeds move that first eligible seed into the batch's upper half, whose
// own call may not fail at all.
func TestBatchFaultAttribution(t *testing.T) {
	cfg := microCfg()
	cfg.Slots = 4
	gen := packet.Bernoulli{Load: 1.0}
	const baseSeed = 50
	fault := errors.New("batch fault")
	gm := func() switchsim.CIOQPolicy { return &core.GM{} }
	fleet := func() FleetAlg {
		inner := CIOQFleetAlg(gm)()
		return func(c switchsim.Config, seqs []packet.Sequence) ([]int64, error) {
			if len(seqs) > 1 {
				return nil, fault
			}
			return inner(c, seqs)
		}
	}
	// skipping judges score the seeds at the given indices 0, so those
	// seeds are skipped.
	skipping := func(skip ...int) JudgeFactory {
		return func() Judge {
			return JudgeFunc(func(c switchsim.Config, seq packet.Sequence) (int64, error) {
				for _, k := range skip {
					if fingerprintSeedMatch(c, gen, baseSeed+int64(k), seq) {
						return 0, nil
					}
				}
				return offline.ExactUnitCIOQ(c, seq)
			})
		}
	}
	ctx := context.Background()
	for _, tc := range []struct {
		skip   []int
		k1     int
		failAt int
	}{
		{[]int{0}, 8, 1},
		{[]int{0, 1}, 3, 2},
		{[]int{0, 1}, 4, 2},
		{nil, 5, 0},
	} {
		judge := skipping(tc.skip...)
		want, err := ScalarChunks(cfg, CIOQAlg(gm), judge, gen, baseSeed)(ctx, 0, tc.k1)
		if err != nil {
			t.Fatal(err)
		}
		want[tc.failAt] = SeedOutcome{Seed: baseSeed + int64(tc.failAt), Err: fmt.Errorf("policy run: %w", fault)}
		got := EvalChunk(cfg, NewLanes(judge, fleet), gen, baseSeed, 0, tc.k1, nil)
		if g, w := fmt.Sprint(got), fmt.Sprint(want); g != w {
			t.Errorf("skip %v, seeds [0, %d): outcomes\n got %s\nwant %s", tc.skip, tc.k1, g, w)
		}
	}
	want := fmt.Sprintf("ratio: seed %d: policy run: batch fault", baseSeed+1)
	for _, batch := range []int{3, 4, 8} {
		_, err := RunFleet(ctx, cfg, fleet, skipping(0), gen, baseSeed, 10, 2, batch)
		if err == nil || err.Error() != want {
			t.Errorf("RunFleet(batch=%d) error = %v, want %q", batch, err, want)
		}
	}
}
