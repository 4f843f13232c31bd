package adversary

import (
	"math/rand"

	"qswitch/internal/packet"
	"qswitch/internal/rng"
)

// Ratio evaluates OPT(seq)/ALG(seq) for the Search fuzzer. Implementations
// must return the achieved ratio and whether the sequence was even valid
// for the target configuration (invalid mutants are discarded). An
// evaluator must be a pure function of the sequence's content — the same
// packets give the same answer on every call — because Memo answers
// repeats from a table.
type Ratio func(seq packet.Sequence) (float64, bool)

// SearchOptions tunes the local-search fuzzer.
type SearchOptions struct {
	Inputs, Outputs int
	MaxSlots        int   // arrival slots available to the adversary
	MaxPackets      int   // sequence length budget
	MaxValue        int64 // 1 for the unit-value case
	Iterations      int
	Seed            int64
	// Restarts controls how many independent hill-climbs are run; the
	// best instance over all restarts wins.
	Restarts int
}

// SearchResult is the best adversarial instance found.
type SearchResult struct {
	Seq      packet.Sequence
	Ratio    float64
	Accepted int // improving mutations accepted
	Tried    int // mutations tried, over every restart
}

// Search hill-climbs over arrival sequences to maximize the competitive
// ratio achieved against a policy. Mutations add, delete, or perturb
// single packets (arrival slot, ports, value). The fuzzer is a practical
// stand-in for an adaptive adversary: on micro instances with an exact
// offline solver it reliably rediscovers ratios close to the known lower
// bounds, while never exceeding the paper's upper bounds — which is
// exactly what the E8 experiment demonstrates.
func Search(opts SearchOptions, eval Ratio) SearchResult {
	if opts.Restarts < 1 {
		opts.Restarts = 1
	}
	if opts.MaxValue < 1 {
		opts.MaxValue = 1
	}
	src := rng.New(opts.Seed)
	var best SearchResult
	tried := 0
	for r := 0; r < opts.Restarts; r++ {
		res := searchOnce(opts, eval, src)
		tried += res.Tried
		if res.Ratio > best.Ratio {
			best = res
		}
	}
	best.Tried = tried
	return best
}

func searchOnce(opts SearchOptions, eval Ratio, rng *rand.Rand) SearchResult {
	cur := randomSeq(opts, rng)
	curRatio, ok := eval(cur)
	for !ok {
		cur = randomSeq(opts, rng)
		curRatio, ok = eval(cur)
	}
	res := SearchResult{Seq: cur, Ratio: curRatio}
	for it := 0; it < opts.Iterations; it++ {
		res.Tried++
		cand := mutate(cur, opts, rng)
		r, ok := eval(cand)
		if !ok {
			continue
		}
		if r >= curRatio { // accept sideways moves to escape plateaus
			if r > curRatio {
				res.Accepted++
			}
			cur, curRatio = cand, r
			if r > res.Ratio {
				res.Ratio = r
				res.Seq = cand.Clone()
			}
		}
	}
	return res
}

func randomSeq(opts SearchOptions, rng *rand.Rand) packet.Sequence {
	n := 1 + rng.Intn(opts.MaxPackets)
	seq := make(packet.Sequence, 0, n)
	for k := 0; k < n; k++ {
		seq = append(seq, randomPacket(opts, rng))
	}
	return seq.Normalize()
}

func randomPacket(opts SearchOptions, rng *rand.Rand) packet.Packet {
	v := int64(1)
	if opts.MaxValue > 1 {
		v = 1 + rng.Int63n(opts.MaxValue)
	}
	return packet.Packet{
		Arrival: rng.Intn(opts.MaxSlots),
		In:      rng.Intn(opts.Inputs),
		Out:     rng.Intn(opts.Outputs),
		Value:   v,
	}
}

func mutate(seq packet.Sequence, opts SearchOptions, rng *rand.Rand) packet.Sequence {
	out := seq.Clone()
	op := rng.Intn(4)
	switch {
	case op == 0 && len(out) < opts.MaxPackets: // add
		out = append(out, randomPacket(opts, rng))
	case op == 1 && len(out) > 1: // delete
		k := rng.Intn(len(out))
		out = append(out[:k], out[k+1:]...)
	case op == 2 && len(out) > 0: // move in time
		k := rng.Intn(len(out))
		out[k].Arrival = rng.Intn(opts.MaxSlots)
	default: // redirect or revalue
		if len(out) == 0 {
			out = append(out, randomPacket(opts, rng))
			break
		}
		k := rng.Intn(len(out))
		switch rng.Intn(3) {
		case 0:
			out[k].In = rng.Intn(opts.Inputs)
		case 1:
			out[k].Out = rng.Intn(opts.Outputs)
		default:
			if opts.MaxValue > 1 {
				out[k].Value = 1 + rng.Int63n(opts.MaxValue)
			}
		}
	}
	return out.Normalize()
}
