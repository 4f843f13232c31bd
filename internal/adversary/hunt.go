package adversary

import (
	"fmt"

	"qswitch/internal/packet"
	"qswitch/internal/rng"
	"qswitch/internal/stats"
)

// HuntResult is the best adversarial instance found by a Hunt, plus enough
// provenance (the winning restart index) to make merging deterministic.
type HuntResult struct {
	// Seq is the best sequence found.
	Seq packet.Sequence
	// Ratio is the best OPT/ALG ratio achieved.
	Ratio float64
	// Restart is the index of the restart that found Seq; -1 in the empty
	// result (no restarts run yet).
	Restart int
	// Accepted counts improving mutations accepted by the winning restart.
	Accepted int
	// Tried counts mutations tried across all restarts merged so far.
	Tried int
}

// Hunt is Search with per-restart seeding: restart r hill-climbs with its
// own rand.Rand seeded opts.Seed + r, so restarts are independent of one
// another and of how they are batched. That independence is what makes
// hunts shardable — HuntRange chunks merged with MergeHunts reproduce
// Hunt's result byte-for-byte regardless of chunk boundaries, worker
// counts or retry history, which Search (one rng threaded through all
// restarts) cannot offer.
func Hunt(opts SearchOptions, eval Ratio) HuntResult {
	r1 := opts.Restarts
	if r1 < 1 {
		r1 = 1
	}
	return HuntRange(opts, eval, 0, r1)
}

// HuntRange runs the restarts [r0, r1) of the hunt named by opts and
// returns their best instance. Splitting [0, Restarts) into ranges and
// folding the results with MergeHunts yields exactly Hunt's result.
func HuntRange(opts SearchOptions, eval Ratio, r0, r1 int) HuntResult {
	if opts.MaxValue < 1 {
		opts.MaxValue = 1
	}
	best := emptyHunt()
	for r := r0; r < r1; r++ {
		res := searchOnce(opts, eval, rng.New(opts.Seed+int64(r)))
		best = MergeHunts(best, HuntResult{
			Seq: res.Seq, Ratio: res.Ratio, Restart: r,
			Accepted: res.Accepted, Tried: res.Tried,
		})
	}
	return best
}

// MergeHunts combines two hunt results: the higher ratio wins, ties go to
// the lower restart index, and Tried accumulates. The tie-break makes the
// fold order-independent, so chunked hunts merge deterministically.
func MergeHunts(a, b HuntResult) HuntResult {
	out := a
	if better(b, a) {
		out = b
	}
	out.Tried = a.Tried + b.Tried
	return out
}

// emptyHunt is the identity element of MergeHunts.
func emptyHunt() HuntResult { return HuntResult{Ratio: -1, Restart: -1} }

// Verdict is a confidence-annotated hunt conclusion. The witness half is
// certain: the judge is deterministic, so a found sequence with ratio r
// PROVES the policy's competitive ratio is >= r. The statistical half
// bounds what more hunting would buy: if R independent restarts all
// failed to beat r, then with confidence 1-delta the probability that one
// more restart improves on r is at most ImproveBound (rule of three /
// clean-sample bound: 1 - delta^(1/R)).
type Verdict struct {
	// Ratio is the proven counterexample ratio (the witness's).
	Ratio float64
	// Restarts is the number of independent restarts the bound is over.
	Restarts int
	// Confidence is 1-delta.
	Confidence float64
	// ImproveBound bounds P(a fresh restart beats Ratio) at Confidence.
	ImproveBound float64
}

// Verdict annotates the hunt result with the restart-exceedance bound at
// the given confidence (e.g. 0.95). restarts is the total number of
// independent restarts that produced the result (SearchOptions.Restarts,
// or the merged range width for sharded hunts).
func (h HuntResult) Verdict(restarts int, confidence float64) Verdict {
	return Verdict{
		Ratio:        h.Ratio,
		Restarts:     restarts,
		Confidence:   confidence,
		ImproveBound: stats.ExceedanceBound(int64(restarts), 1-confidence),
	}
}

// String renders the verdict in the paper-facing form, e.g.
// "counterexample ratio >= 1.2500 (proven witness); P(fresh restart
// improves) <= 0.0950 at 95% confidence (31 restarts)".
func (v Verdict) String() string {
	return fmt.Sprintf("counterexample ratio >= %.4f (proven witness); P(fresh restart improves) <= %.4f at %g%% confidence (%d restarts)",
		v.Ratio, v.ImproveBound, 100*v.Confidence, v.Restarts)
}

// better reports whether b beats a under the (ratio desc, restart asc)
// order; the empty result (Restart -1) loses to everything real.
func better(b, a HuntResult) bool {
	if b.Restart < 0 {
		return false
	}
	if a.Restart < 0 {
		return true
	}
	if b.Ratio != a.Ratio {
		return b.Ratio > a.Ratio
	}
	return b.Restart < a.Restart
}
