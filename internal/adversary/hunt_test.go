package adversary

import (
	"reflect"
	"testing"

	"qswitch/internal/packet"
)

// huntEval is a cheap deterministic fitness function: it rewards longer
// sequences with a mild preference, so hunts make progress without a
// simulator.
func huntEval(seq packet.Sequence) (float64, bool) {
	if len(seq) == 0 {
		return 0, false
	}
	var v int64
	for _, p := range seq {
		v += p.Value + int64(p.Arrival)
	}
	return float64(len(seq)) + float64(v%7)/10, true
}

func huntOpts() SearchOptions {
	return SearchOptions{
		Inputs: 2, Outputs: 2, MaxSlots: 4, MaxPackets: 6, MaxValue: 3,
		Iterations: 50, Seed: 42, Restarts: 6,
	}
}

// TestHuntRangeChunksMergeToHunt is the shardability property the service
// tier rests on: any chunking of the restart range, folded with
// MergeHunts, must reproduce the whole range [0, Restarts) exactly.
func TestHuntRangeChunksMergeToHunt(t *testing.T) {
	opts := huntOpts()
	want := HuntRange(opts, huntEval, 0, max(1, opts.Restarts))
	if want.Restart < 0 || want.Ratio <= 0 {
		t.Fatalf("degenerate hunt baseline: %+v", want)
	}
	for _, chunk := range []int{1, 2, 3, 4, 6, 7} {
		got := HuntResult{Ratio: -1, Restart: -1}
		for r0 := 0; r0 < opts.Restarts; r0 += chunk {
			r1 := r0 + chunk
			if r1 > opts.Restarts {
				r1 = opts.Restarts
			}
			got = MergeHunts(got, HuntRange(opts, huntEval, r0, r1))
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("chunk=%d merged hunt differs:\n got  %+v\n want %+v", chunk, got, want)
		}
	}
}

// TestHuntRangeMergeOrderIndependent: folding chunks in any order yields
// the same result, so retried and out-of-order chunks cannot skew a hunt.
func TestHuntRangeMergeOrderIndependent(t *testing.T) {
	opts := huntOpts()
	want := HuntRange(opts, huntEval, 0, max(1, opts.Restarts))
	chunks := []HuntResult{
		HuntRange(opts, huntEval, 4, 6),
		HuntRange(opts, huntEval, 0, 2),
		HuntRange(opts, huntEval, 2, 4),
	}
	got := HuntResult{Ratio: -1, Restart: -1}
	for _, c := range chunks {
		got = MergeHunts(got, c)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("out-of-order merge differs:\n got  %+v\n want %+v", got, want)
	}
}

func TestMergeHuntsTieBreaksByRestart(t *testing.T) {
	a := HuntResult{Ratio: 2, Restart: 3, Tried: 10}
	b := HuntResult{Ratio: 2, Restart: 1, Tried: 5}
	m1 := MergeHunts(a, b)
	m2 := MergeHunts(b, a)
	if m1.Restart != 1 || m2.Restart != 1 {
		t.Errorf("tie went to restarts %d/%d, want 1", m1.Restart, m2.Restart)
	}
	if m1.Tried != 15 || m2.Tried != 15 {
		t.Errorf("Tried = %d/%d, want 15", m1.Tried, m2.Tried)
	}
}

func TestMergeHuntsEmptyIdentity(t *testing.T) {
	empty := HuntResult{Ratio: -1, Restart: -1}
	real := HuntResult{Ratio: 1.5, Restart: 0, Tried: 7}
	if got := MergeHunts(empty, real); got.Restart != 0 || got.Ratio != 1.5 || got.Tried != 7 {
		t.Errorf("empty ⊕ real = %+v", got)
	}
	if got := MergeHunts(real, empty); got.Restart != 0 || got.Ratio != 1.5 || got.Tried != 7 {
		t.Errorf("real ⊕ empty = %+v", got)
	}
}

// TestHuntRestartsIndependent: restart r's outcome must not depend on
// which batch ran it, so a lone HuntRange(r, r+1) reproduces the restart's
// contribution exactly.
func TestHuntRestartsIndependent(t *testing.T) {
	opts := huntOpts()
	whole := HuntRange(opts, huntEval, 0, max(1, opts.Restarts))
	lone := HuntRange(opts, huntEval, whole.Restart, whole.Restart+1)
	if lone.Ratio != whole.Ratio {
		t.Errorf("winning restart re-run alone scored %v, hunt scored %v", lone.Ratio, whole.Ratio)
	}
	if !reflect.DeepEqual(lone.Seq, whole.Seq) {
		t.Errorf("winning restart re-run alone found a different sequence")
	}
}
