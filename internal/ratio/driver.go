package ratio

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"qswitch/internal/obs"
	"qswitch/internal/packet"
	"qswitch/internal/stats"
	"qswitch/internal/switchsim"
)

// ChunkEvaluator evaluates the seed indices [k0, k1) of an estimation and
// returns one SeedOutcome per seed, in seed order; the in-process
// evaluators stop early after a failed seed. It is the pluggable
// backend of the estimation driver: every engine — scalar, columnar fleet,
// out-of-process shards — adapts to it, and because outcomes are pure per
// seed, any evaluator yields identical outcomes for the same indices.
// Evaluators may hold reusable scratch (judges, fleet storage) across
// calls and are not safe for concurrent use; the driver mints one per
// worker. The in-process evaluators draw each seed's sequence into storage
// they keep, so a sequence they pass to a Judge, an Alg or a FleetAlg is
// valid only for that call.
type ChunkEvaluator func(ctx context.Context, k0, k1 int) ([]SeedOutcome, error)

// ScalarChunks adapts a per-sequence policy run to the ChunkEvaluator
// interface: FleetChunks at batch one over a FleetAlg that runs alg on
// each sequence, so its outcomes and error texts come from the one lane
// body, and no batch splits onto a second goroutine.
func ScalarChunks(cfg switchsim.Config, alg Alg, judge JudgeFactory, gen packet.Generator, baseSeed int64) ChunkEvaluator {
	perSeq := func() FleetAlg {
		var out []int64
		return func(cfg switchsim.Config, seqs []packet.Sequence) ([]int64, error) {
			out = out[:0]
			for _, seq := range seqs {
				b, err := alg(cfg, seq)
				if err != nil {
					return nil, err
				}
				out = append(out, b)
			}
			return out, nil
		}
	}
	return armChunks(cfg, NewLanes(judge, perSeq), gen, baseSeed, 1)
}

// FleetChunks adapts the columnar fleet engine: one pair of lanes
// (NewLanes), each with its own FleetAlg and judge, is minted as first
// needed and reused across all chunks (fleet storage, judge scratch and sequence
// buffers stay warm for the whole run), and each chunk is evaluated in
// sub-batches of `batch` sequences (<= 0 selects 64) via EvalChunk, which
// splits every batch between the two lanes.
func FleetChunks(cfg switchsim.Config, alg FleetAlgFactory, judge JudgeFactory, gen packet.Generator, baseSeed int64, batch int) ChunkEvaluator {
	return armChunks(cfg, NewLanes(judge, alg), gen, baseSeed, batch)
}

// armChunks is FleetChunks over lanes of k arms that share every generated
// sequence and judge call: each chunk's outcomes are seed-major, k per
// seed, and end with the first batch that holds a failed seed. batch <= 0
// selects 64.
func armChunks(cfg switchsim.Config, l *Lanes, gen packet.Generator, baseSeed int64, batch int) ChunkEvaluator {
	if batch <= 0 {
		batch = 64
	}
	k := len(l.lane[0].arms)
	return func(ctx context.Context, k0, k1 int) ([]SeedOutcome, error) {
		out := make([]SeedOutcome, 0, (k1-k0)*k)
		for b0 := k0; b0 < k1; b0 += batch {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			n := len(out)
			out = l.eval(cfg, gen, baseSeed, b0, min(k1, b0+batch), out)
			if slices.ContainsFunc(out[n:], func(o SeedOutcome) bool { return o.Err != nil }) {
				break // the merge reports it; later seeds are moot
			}
		}
		return out, nil
	}
}

// ShardedChunks adapts a chunk service (typically a shard coordinator
// fanning work over qswitchd worker processes): each requested range is
// forwarded as one ChunkRequest with K0/K1 overwritten. req.BaseSeed is
// the evaluator's base seed. The evaluator is stateless and safe for
// concurrent use.
func ShardedChunks(svc ChunkService, req ChunkRequest) ChunkEvaluator {
	return func(ctx context.Context, k0, k1 int) ([]SeedOutcome, error) {
		creq := req
		creq.K0, creq.K1 = k0, k1
		out, err := svc.RatioChunk(ctx, creq)
		if err != nil {
			return nil, err
		}
		if len(out) != k1-k0 {
			return nil, fmt.Errorf("chunk service returned %d outcomes for %d seeds", len(out), k1-k0)
		}
		return out, nil
	}
}

// SequentialOptions tunes RunSequential.
type SequentialOptions struct {
	// Target is the precision target; sampling stops at the first chunk
	// boundary where the Student-t CI half-width on the mean ratio clears
	// it. A disabled target runs the full budget, making RunSequential
	// byte-identical to every fixed-N entry point over MaxRuns seeds.
	Target stats.Target
	// Chunk is the seed-chunk size between stopping decisions (<= 0
	// selects 16). The stopped seed count is always a multiple of Chunk
	// (capped by MaxRuns), which is what makes the run deterministic
	// given (baseSeed, Chunk) regardless of evaluator backend.
	Chunk int
	// MaxRuns is the hard seed budget; the run never issues more seeds,
	// target met or not.
	MaxRuns int
}

// SeqReport describes how an estimation ended.
type SeqReport struct {
	// Seeds is the number of seed indices folded (eligible + skipped).
	Seeds int
	// TargetMet reports whether the precision target was reached within
	// the budget (always false for a disabled target).
	TargetMet bool
	// HalfWidth is the final Student-t CI half-width on the mean ratio at
	// the target's confidence level.
	HalfWidth float64
	// Confidence is the confidence level HalfWidth was computed at.
	Confidence float64
}

// RunSequential estimates the mean ratio with sequential stopping: it
// issues seed chunks [0,c), [c,2c), ... through the caller's evaluator on
// the caller's goroutine until the Student-t CI half-width on the mean
// ratio clears the target or the seed budget is exhausted, then merges all
// outcomes in seed order. Stopping is decided only at chunk boundaries
// from the seed-ordered prefix, so any backend stops at the same seed
// count with a byte-identical Estimate, and a disabled target reproduces
// the fixed-N entry points at any chunk size.
func RunSequential(ctx context.Context, eval ChunkEvaluator, opts SequentialOptions) (Estimate, SeqReport, error) {
	return sequential(ctx, plan{workers: 1, mint: func() ChunkEvaluator { return eval }}, opts)
}

// RunSequentialPool is RunSequential on GOMAXPROCS workers, each
// evaluating through its own evaluator from mint. The Estimate, the
// SeqReport and the (seed, error) pair of a failure are byte-identical to
// RunSequential's over one minted evaluator, at any worker count.
func RunSequentialPool(ctx context.Context, mint func() ChunkEvaluator, opts SequentialOptions) (Estimate, SeqReport, error) {
	return sequential(ctx, plan{mint: mint}, opts)
}

// sequential runs p under opts and reports the final half-width.
func sequential(ctx context.Context, p plan, opts SequentialOptions) (Estimate, SeqReport, error) {
	p.runs, p.chunk, p.target = opts.MaxRuns, opts.Chunk, opts.Target
	est, rep, err := merged(ctx, p)
	// The half-width costs a t-quantile inversion, so only the entry points
	// that report it compute it, over the samples the driver folded.
	rep.HalfWidth = est.HalfWidth(rep.Confidence)
	return est, rep, err
}

// plan is one estimation as the driver runs it.
type plan struct {
	// runs is the seed budget, cut into chunks of `chunk` seeds (<= 0
	// selects 16).
	runs, chunk int
	// workers is the number of evaluators (<= 0 selects GOMAXPROCS); the
	// caller's goroutine is one of them.
	workers int
	// arms is the number of outcomes per seed, seed-major: one for a
	// marginal estimate, k for a paired comparison of k policies.
	arms int
	// target stops the run at the first chunk whose seed-ordered prefix
	// meets it: the marginal CI with one arm, every arm's paired
	// difference against arm 0 with more.
	target stats.Target
	// mint makes one evaluator per worker.
	mint func() ChunkEvaluator
	// wrap, when set, annotates an evaluator's own error with its chunk.
	wrap func(chunk int, err error) error
}

// merged drives a one-arm plan and merges its outcomes into an Estimate.
func merged(ctx context.Context, p plan) (Estimate, SeqReport, error) {
	outs, rep, err := drive(ctx, p)
	if err != nil {
		return Estimate{}, rep, err
	}
	est, err := MergeOutcomes(ctx, outs)
	return est, rep, err
}

// drive is the one estimation driver (see the package doc). Chunks below
// a failed seed still run, so the merge attributes the error to its exact
// seed; an evaluator error cancels the chunks in flight and is reported
// as the lowest chunk's error that is not a cancellation, failing that a
// cancelled ctx reports ctx's error. Probes, when installed, see every
// folded chunk.
func drive(ctx context.Context, p plan) ([]SeedOutcome, SeqReport, error) {
	d := driver{arms: max(1, p.arms), target: p.target}
	d.rep.Confidence = p.target.ConfidenceLevel()
	if p.runs <= 0 {
		return nil, d.rep, nil
	}
	chunk := p.chunk
	if chunk <= 0 {
		chunk = 16
	}
	chunk = min(chunk, p.runs)
	n := (p.runs + chunk - 1) / chunk
	workers := p.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	d.stop = n
	d.done = make([]pending, n)
	d.accs = make([]stats.Estimator, max(1, d.arms-1))
	d.outs = make([]SeedOutcome, 0, min(p.runs, 4*chunk)*d.arms)
	d.probes = seqProbes.Load()
	d.probes.StartRun(int64(p.runs), p.target.AbsWidth)

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var mu sync.Mutex
	work := func() {
		eval := p.mint()
		for {
			mu.Lock()
			c := d.next
			if c >= d.stop || cctx.Err() != nil {
				mu.Unlock()
				return
			}
			d.next++
			mu.Unlock()
			t0 := time.Now()
			res, err := eval(cctx, c*chunk, min(p.runs, (c+1)*chunk))
			mu.Lock()
			if err != nil {
				d.fail(c, err)
				cancel()
			} else {
				d.done[c] = pending{res, time.Since(t0), true}
				d.advance()
			}
			mu.Unlock()
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()

	if d.err != nil && !(d.errCancelled && ctx.Err() != nil) {
		if p.wrap != nil {
			return nil, d.rep, p.wrap(d.errAt, d.err)
		}
		return nil, d.rep, d.err
	}
	if d.err != nil || d.folded < d.stop {
		return nil, d.rep, ctx.Err() // cancelled before the stop
	}
	return d.outs, d.rep, nil
}

// pending is an evaluated chunk waiting for every chunk below it.
type pending struct {
	res []SeedOutcome
	dur time.Duration
	ok  bool
}

// driver is drive's state, guarded by the workers' lock: the chunk
// frontier (next to issue, stop, folded so far), the evaluated chunks not
// yet folded, the kept evaluator error, and the seed-ordered fold with its
// stopping statistics — the marginal ratio with one arm, each arm's
// per-seed ratio difference against arm 0 with more.
type driver struct {
	next, stop, folded int
	done               []pending
	err                error
	errAt              int
	errCancelled       bool

	arms   int
	target stats.Target
	probes *obs.SeqProbes
	outs   []SeedOutcome
	accs   []stats.Estimator
	rep    SeqReport
}

// fail records chunk c's evaluator error and stops issuing from c on. It
// keeps the lowest chunk's error that is not a cancellation, failing that
// the lowest chunk's.
func (d *driver) fail(c int, err error) {
	d.stop = min(d.stop, c)
	cancelled := errors.Is(err, context.Canceled)
	if d.err == nil || d.errCancelled && !cancelled || d.errCancelled == cancelled && c < d.errAt {
		d.err, d.errAt, d.errCancelled = err, c, cancelled
	}
}

// advance folds every evaluated chunk that has no gap below it.
func (d *driver) advance() {
	for d.folded < d.stop && d.done[d.folded].ok {
		pc := d.done[d.folded]
		d.done[d.folded] = pending{}
		d.folded++
		if d.add(pc.res, pc.dur) {
			d.stop = d.folded
		}
	}
}

// add folds one chunk and reports whether the run stops after it: a seed
// failed, or the prefix meets the target.
func (d *driver) add(res []SeedOutcome, dur time.Duration) bool {
	failed := false
	for i := 0; i+d.arms <= len(res) && !failed; i += d.arms {
		seed := res[i : i+d.arms]
		d.outs = append(d.outs, seed...)
		d.rep.Seeds++
		for _, o := range seed {
			failed = failed || o.Err != nil || o.NotRun
		}
		if failed || seed[0].Skipped {
			continue
		}
		if d.arms == 1 {
			d.accs[0].Add(seed[0].Ratio)
		}
		for a := 1; a < d.arms; a++ {
			d.accs[a-1].Add(seed[a].Ratio - seed[0].Ratio)
		}
	}
	if d.probes != nil {
		// The half-width is pure, so computing it only when probes are
		// installed leaves the estimate untouched.
		d.probes.RecordChunk(dur, int64(len(res)/d.arms), int64(d.rep.Seeds), d.halfWidth())
	}
	if failed {
		return true
	}
	met := true
	for i := range d.accs {
		met = met && d.target.Met(&d.accs[i])
	}
	d.rep.TargetMet = met
	return met
}

// halfWidth is the widest stopping statistic's CI half-width.
func (d *driver) halfWidth() float64 {
	hw := 0.0
	for i := range d.accs {
		hw = max(hw, d.accs[i].HalfWidth(d.rep.Confidence))
	}
	return hw
}
