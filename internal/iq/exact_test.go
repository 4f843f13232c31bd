package iq

import (
	"math/rand"
	"slices"
	"testing"

	"qswitch/internal/packet"
)

// iqCase is one ExactOPT instance: m queues of capacity b, and the
// horizon handed to ExactOPT (<= 0 selects seq.Horizon()).
type iqCase struct {
	m, b  int
	seq   packet.Sequence
	slots int
}

func (c iqCase) opt(t *testing.T) int64 {
	t.Helper()
	v, err := ExactOPT(c.m, c.b, c.seq, c.slots)
	if err != nil {
		t.Fatalf("ExactOPT(m=%d b=%d slots=%d): %v", c.m, c.b, c.slots, err)
	}
	return v
}

// randomIQ draws n packets onto m queues. Gaps between arrivals are
// uniform in [0, maxGap], so gap 0 makes same-slot bursts; values are
// uniform in [1, hi].
func randomIQ(rng *rand.Rand, m, n, maxGap int, hi int64) packet.Sequence {
	seq := make(packet.Sequence, n)
	t := 0
	for k := range seq {
		t += rng.Intn(maxGap + 1)
		seq[k] = packet.Packet{ID: int64(k), Arrival: t, Out: rng.Intn(m), Value: 1 + rng.Int63n(hi)}
	}
	return seq
}

// fuzzCase decodes a fuzz input: m <= 8, b <= 3, up to 47 packets with
// values in [1, 2^(scale%41)] (scale%41 == 0 is unit values), and a
// horizon that is the default (kind 0), at or before the last arrival
// (kind 1), or past it (kind 2).
func fuzzCase(seed int64, mb, nPkts, maxGap, scale uint8, horizon uint16) iqCase {
	rng := rand.New(rand.NewSource(seed))
	c := iqCase{m: 1 + int(mb&7), b: 1 + int(mb>>3)%3}
	c.seq = randomIQ(rng, c.m, int(nPkts)%48, int(maxGap)%5, int64(1)<<(scale%41))
	last, extra := max(c.seq.MaxSlot(), 0), int(horizon/3)
	switch horizon % 3 {
	case 0:
		c.slots = -extra % 2 // 0 or -1: both select the default
	case 1:
		c.slots = 1 + extra%(last+1)
	case 2:
		c.slots = last + 1 + extra%40
	}
	return c
}

// addIQFuzzCorpus seeds a fuzz target with a grid of geometries, loads,
// value ranges and all three horizon kinds.
func addIQFuzzCorpus(f *testing.F) {
	seed := int64(0)
	for _, mb := range []uint8{0, 1 | 0<<3, 2 | 1<<3, 3 | 1<<3, 7 | 2<<3} {
		for _, load := range []struct{ n, gap uint8 }{{12, 0}, {30, 1}, {47, 3}} {
			for _, scale := range []uint8{0, 4, 40} {
				for kind := uint16(0); kind < 3; kind++ {
					seed++
					f.Add(seed, mb, load.n, load.gap, scale, kind+3*uint16(seed))
				}
			}
		}
	}
}

// FuzzIQOptMatchesFlow pins the greedy to the min-cost-flow formulation
// on arbitrary arrivals, values and horizons.
func FuzzIQOptMatchesFlow(f *testing.F) {
	addIQFuzzCorpus(f)
	f.Fuzz(func(t *testing.T, seed int64, mb, nPkts, maxGap, scale uint8, horizon uint16) {
		c := fuzzCase(seed, mb, nPkts, maxGap, scale, horizon)
		want, err := exactOPTFlow(c.m, c.b, c.seq, c.slots)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.opt(t); got != want {
			t.Fatalf("m=%d b=%d slots=%d seq=%v: greedy %d, flow %d", c.m, c.b, c.slots, c.seq, got, want)
		}
	})
}

// withSeq returns c over a copy of its sequence, edited by f.
func (c iqCase) withSeq(f func(p *packet.Packet)) iqCase {
	c.seq = slices.Clone(c.seq)
	for k := range c.seq {
		f(&c.seq[k])
	}
	return c
}

// metamorphic lists relations the exact optimum obeys by the model alone,
// so they need no second solver. Each names a mutant of ExactOPT's greedy
// that it catches.
var metamorphic = []struct {
	name  string
	check func(t *testing.T, rng *rand.Rand, c iqCase)
}{
	// Catches summing a count in place of values (opt++).
	{"values x2^k scale OPT by 2^k", func(t *testing.T, rng *rand.Rand, c iqCase) {
		k := 1 + rng.Intn(16)
		scaled := c.withSeq(func(p *packet.Packet) { p.Value <<= k })
		if got, want := scaled.opt(t), c.opt(t)<<k; got != want {
			t.Errorf("values <<%d: OPT %d, want %d", k, got, want)
		}
	}},
	// Catches a sweep that starts at slot 1.
	{"shifting arrivals and horizon keeps OPT", func(t *testing.T, rng *rand.Rand, c iqCase) {
		k := 1 + rng.Intn(20)
		shifted := c.withSeq(func(p *packet.Packet) { p.Arrival += k })
		if c.slots > 0 {
			shifted.slots += k
		}
		if got, want := shifted.opt(t), c.opt(t); got != want {
			t.Errorf("shift by %d: OPT %d, want %d", k, got, want)
		}
	}},
	// Catches reading queue 0's release count for every queue.
	{"permuting queues keeps OPT", func(t *testing.T, rng *rand.Rand, c iqCase) {
		perm := rng.Perm(c.m)
		permuted := c.withSeq(func(p *packet.Packet) { p.Out = perm[p.Out] })
		if got, want := permuted.opt(t), c.opt(t); got != want {
			t.Errorf("queues permuted by %v: OPT %d, want %d", perm, got, want)
		}
	}},
	// Catches leaving a rejected packet in its queue's kept list.
	{"adding a packet of value v raises OPT by 0..v", func(t *testing.T, rng *rand.Rand, c iqCase) {
		p := packet.Packet{Arrival: rng.Intn(c.seq.MaxSlot() + 3), Out: rng.Intn(c.m), Value: 1 + rng.Int63n(100)}
		at, _ := slices.BinarySearchFunc(c.seq, p.Arrival+1, func(q packet.Packet, a int) int { return q.Arrival - a })
		grown := c
		grown.seq = slices.Insert(slices.Clone(c.seq), at, p)
		for k := range grown.seq {
			grown.seq[k].ID = int64(k)
		}
		before, after := c.opt(t), grown.opt(t)
		if after < before || after > before+p.Value {
			t.Errorf("adding %+v: OPT %d -> %d, want a rise in [0, %d]", p, before, after, p.Value)
		}
	}},
	// Catches taking packets lowest value first.
	{"a larger buffer never lowers OPT", func(t *testing.T, _ *rand.Rand, c iqCase) {
		bigger := c
		bigger.b++
		if got, base := bigger.opt(t), c.opt(t); got < base {
			t.Errorf("b=%d -> %d: OPT %d -> %d", c.b, bigger.b, base, got)
		}
	}},
}

// TestExactOPTMetamorphic checks every relation on a grid of instances:
// Bernoulli workloads at E16's load and bursty random arrivals, under
// the default, a short and a long horizon.
func TestExactOPTMetamorphic(t *testing.T) {
	var cases []iqCase
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, b := 1+int(seed%6), 1+int(seed%3)
		for _, seq := range []packet.Sequence{iqSeq(seed, m, 10, 1.8, 50), randomIQ(rng, m, 25, int(seed%3), 1<<uint(seed*3))} {
			last := seq.MaxSlot()
			for _, slots := range []int{0, 1 + last/2, last + 3} {
				cases = append(cases, iqCase{m, b, seq, slots})
			}
		}
	}
	for _, rel := range metamorphic {
		t.Run(rel.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			for _, c := range cases {
				rel.check(t, rng, c)
			}
		})
	}
}

// FuzzIQOptMetamorphic checks every relation on fuzzed instances.
func FuzzIQOptMetamorphic(f *testing.F) {
	addIQFuzzCorpus(f)
	f.Fuzz(func(t *testing.T, seed int64, mb, nPkts, maxGap, scale uint8, horizon uint16) {
		c := fuzzCase(seed, mb, nPkts, maxGap, scale, horizon)
		rng := rand.New(rand.NewSource(seed))
		for _, rel := range metamorphic {
			rel.check(t, rng, c)
		}
	})
}

// BenchmarkExactOPT solves at E16's full geometry (m=32, B=8, 200 slots
// of Bernoulli arrivals at load 1.8 with values uniform in [1, 50], a
// 64-slot drain) and reports ns per packet for the greedy and for the
// min-cost-flow reference.
func BenchmarkExactOPT(b *testing.B) {
	const m, buf, slots = 32, 8, 200
	seq := packet.Bernoulli{Load: 1.8, Values: packet.UniformValues{Hi: 50}}.
		Generate(rand.New(rand.NewSource(1)), 1, m, slots)
	for _, solver := range []struct {
		name  string
		solve func(int, int, packet.Sequence, int) (int64, error)
	}{{"greedy", ExactOPT}, {"flow", exactOPTFlow}} {
		b.Run(solver.name, func(b *testing.B) {
			for b.Loop() {
				if _, err := solver.solve(m, buf, seq, slots+2*m); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(seq)), "ns/pkt")
		})
	}
}
