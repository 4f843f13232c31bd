package offline

import (
	"math/rand"
	"testing"

	"qswitch/internal/packet"
	"qswitch/internal/switchsim"
)

// The packed-word solvers must return, on every instance, exactly what the
// retained byte-slice/string-memo reference (reference_test.go) returns:
// the same optimum, or the same refusal.

// exactPair holds one production and one reference solver of each kind,
// reused across a corpus so that history-independence is checked too.
type exactPair struct {
	cioq    UnitCIOQSolver
	xbar    UnitCrossbarSolver
	w       WeightedSolver
	refCIOQ refUnitCIOQSolver
	refXbar refUnitCrossbarSolver
	refW    refWeightedSolver
	cuts    int // states whose enumeration the cut ended early in the last check
}

// check solves one instance both ways, fails on any difference, and
// returns what both said.
func (p *exactPair) check(t testing.TB, cfg switchsim.Config, seq packet.Sequence, crossbar, weighted bool) (int64, error) {
	t.Helper()
	var got, want int64
	var err, refErr error
	switch {
	case weighted && crossbar:
		got, err = p.w.SolveCrossbar(cfg, seq)
		want, refErr = p.refW.SolveCrossbar(cfg, seq)
		p.cuts = p.w.cuts
	case weighted:
		got, err = p.w.SolveCIOQ(cfg, seq)
		want, refErr = p.refW.SolveCIOQ(cfg, seq)
		p.cuts = p.w.cuts
	case crossbar:
		got, err = p.xbar.Solve(cfg, seq)
		want, refErr = p.refXbar.Solve(cfg, seq)
		p.cuts = p.xbar.cuts
	default:
		got, err = p.cioq.Solve(cfg, seq)
		want, refErr = p.refCIOQ.Solve(cfg, seq)
		p.cuts = p.cioq.cuts
	}
	if got != want || (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
		t.Fatalf("crossbar=%v weighted=%v cfg=%+v: packed (%d, %v) != reference (%d, %v)\nseq=%v",
			crossbar, weighted, cfg, got, err, want, refErr, seq)
	}
	return got, err
}

// TestExactMatchesReferenceOnPaperShapes runs every instance E1–E4 judge
// at full settings and the default seed — the shapes, generators and seed
// ranges of internal/experiments/ratios.go — none of which may be refused.
func TestExactMatchesReferenceOnPaperShapes(t *testing.T) {
	micro := func(slots int) switchsim.Config {
		return switchsim.Config{Inputs: 2, Outputs: 2, InputBuf: 2, OutputBuf: 2,
			CrossBuf: 1, Speedup: 1, Slots: slots}
	}
	step := int64(1)
	if testing.Short() {
		step = 7
	}
	var p exactPair
	corpus := func(cfg switchsim.Config, gen packet.Generator, base int64, runs int, crossbar, weighted bool) {
		for seed := base; seed < base+int64(runs); seed += step {
			rng := rand.New(rand.NewSource(seed))
			seq := gen.Generate(rng, cfg.Inputs, cfg.Outputs, cfg.Slots)
			if _, err := p.check(t, cfg, seq, crossbar, weighted); err != nil {
				t.Fatalf("%s on %+v, seed %d: %v", gen.Name(), cfg, seed, err)
			}
		}
	}

	e1 := []switchsim.Config{micro(7), micro(7), micro(7)}
	e1[1].InputBuf, e1[1].OutputBuf = 1, 1
	e1[2].Speedup = 2
	for ci, cfg := range e1 {
		for gi, gen := range []packet.Generator{
			packet.Bernoulli{Load: 1.0},
			packet.Bernoulli{Load: 2.0},
			packet.Hotspot{Load: 1.5, HotFrac: 0.8},
			packet.Bursty{OnLoad: 1.0, POnOff: 0.4, POffOn: 0.4},
		} {
			corpus(cfg, gen, 1+int64(1000*ci+100*gi), 120, false, false)
		}
	}

	for gi, gen := range []packet.Generator{
		packet.Bernoulli{Load: 0.8, Values: packet.UniformValues{Hi: 20}},
		packet.Bernoulli{Load: 0.8, Values: packet.TwoValued{Alpha: 50, PHigh: 0.3}},
		packet.Hotspot{Load: 0.9, HotFrac: 0.9, Values: packet.GeometricValues{P: 0.3, Hi: 64}},
		packet.Bursty{OnLoad: 0.8, POnOff: 0.3, POffOn: 0.3, Values: packet.ZipfValues{Hi: 100, S: 1.2}},
	} {
		corpus(micro(4), gen, 1+int64(100*gi), 60, false, true)
	}
	e2b := micro(4)
	e2b.Speedup, e2b.OutputBuf = 2, 1
	corpus(e2b, packet.Hotspot{Load: 1.2, HotFrac: 0.8, Values: packet.GeometricValues{P: 0.35, Hi: 64}},
		1+7, 60, false, true)

	e3 := []switchsim.Config{micro(6), micro(6)}
	e3[1].Speedup = 2
	for ci, cfg := range e3 {
		for gi, gen := range []packet.Generator{
			packet.Bernoulli{Load: 1.5},
			packet.Hotspot{Load: 1.5, HotFrac: 0.8},
			packet.Bursty{OnLoad: 1.0, POnOff: 0.4, POffOn: 0.4},
		} {
			corpus(cfg, gen, 1+int64(1000*ci+100*gi), 100, true, false)
		}
	}

	for vi := 0; vi < 2; vi++ {
		corpus(micro(3), packet.Bernoulli{Load: 0.7, Values: packet.UniformValues{Hi: 16}},
			1+int64(100*vi), 30, true, true)
	}
}

// randomInstance draws a sequence of n packets over arrival slots
// [0, span) with values in [1, hi], sorted and renumbered.
func randomInstance(rng *rand.Rand, cfg switchsim.Config, n, span int, hi int64) packet.Sequence {
	seq := make(packet.Sequence, n)
	for k := range seq {
		seq[k] = packet.Packet{ID: int64(k), Arrival: rng.Intn(span),
			In: rng.Intn(cfg.Inputs), Out: rng.Intn(cfg.Outputs), Value: 1 + rng.Int63n(hi)}
	}
	return seq.Normalize()
}

// TestExactMatchesReferenceOnRandomGeometries walks the guards' corners:
// rectangular and 3x3 switches at unit buffers, deep buffers on 1x1 and
// 2x1, speedups 1-4, fixed and drained horizons up to the 160-slot limit,
// and weighted instances of up to 14 packets drawn from two or three
// values, where almost every comparison the search makes is a tie.
func TestExactMatchesReferenceOnRandomGeometries(t *testing.T) {
	rounds := 8
	if testing.Short() {
		rounds = 2
	}
	unit := []switchsim.Config{
		{Inputs: 1, Outputs: 4, InputBuf: 1, OutputBuf: 1, CrossBuf: 1},
		{Inputs: 4, Outputs: 1, InputBuf: 2, OutputBuf: 3, CrossBuf: 1},
		{Inputs: 3, Outputs: 3, InputBuf: 1, OutputBuf: 1, CrossBuf: 1},
		{Inputs: 2, Outputs: 3, InputBuf: 2, OutputBuf: 1, CrossBuf: 1},
		{Inputs: 2, Outputs: 2, InputBuf: 3, OutputBuf: 4, CrossBuf: 2},
		{Inputs: 2, Outputs: 1, InputBuf: 7, OutputBuf: 15, CrossBuf: 3},
		{Inputs: 1, Outputs: 1, InputBuf: 15, OutputBuf: 15, CrossBuf: 15},
	}
	var p exactPair
	rng := rand.New(rand.NewSource(14))
	for round := 0; round < rounds; round++ {
		for _, cfg := range unit {
			for _, crossbar := range []bool{false, true} {
				cfg.Speedup = 1 + rng.Intn(maxExactSpeedup)
				n, span := 1+rng.Intn(10), 1+rng.Intn(6)
				switch round % 3 {
				case 1: // a fixed horizon that cuts the drain short
					cfg.Slots = 1 + rng.Intn(span+2)
				case 2: // a sparse sequence drained to the end
					span, cfg.Slots = maxExactSlots-n-rng.Intn(20), 0
				default:
					cfg.Slots = 0
				}
				p.check(t, cfg, randomInstance(rng, cfg, n, span, 1), crossbar, false)
			}
		}
		for _, cfg := range []switchsim.Config{
			{Inputs: 2, Outputs: 2, InputBuf: 1, OutputBuf: 1, CrossBuf: 1},
			{Inputs: 2, Outputs: 2, InputBuf: 2, OutputBuf: 2, CrossBuf: 1},
			{Inputs: 2, Outputs: 1, InputBuf: 3, OutputBuf: 2, CrossBuf: 2},
			{Inputs: 1, Outputs: 2, InputBuf: 2, OutputBuf: 3, CrossBuf: 3},
		} {
			for _, crossbar := range []bool{false, true} {
				cfg.Speedup = 1 + rng.Intn(maxWSpeedup)
				n := 4 + rng.Intn(maxWPackets-3)
				if crossbar {
					n = min(n, 11) // the reference takes seconds beyond
				}
				cfg.Slots = 0
				if round%2 == 1 {
					cfg.Slots = 2 + rng.Intn(5)
				}
				hi := int64(2 + rng.Intn(2))
				p.check(t, cfg, randomInstance(rng, cfg, n, 1+rng.Intn(3), hi), crossbar, true)
			}
		}
	}
}

// TestExactCutFiresAtRootAndNever brackets the bound cut. A lone packet is
// delivered by the first schedule tried, which meets the ceiling at the
// root. On a 1x2 switch at speedup 1 fed one packet per output every slot,
// the single input moves one packet a slot while the ceiling counts one per
// output, so no state ever meets its ceiling and the search is exhaustive.
func TestExactCutFiresAtRootAndNever(t *testing.T) {
	var p exactPair
	lone := packet.Sequence{{ID: 0, Arrival: 0, In: 1, Out: 0, Value: 9}}
	unitLone := packet.Sequence{{ID: 0, Arrival: 0, In: 1, Out: 0, Value: 1}}
	cfg := switchsim.Config{Inputs: 2, Outputs: 2, InputBuf: 2, OutputBuf: 2, CrossBuf: 1, Speedup: 1}
	for _, crossbar := range []bool{false, true} {
		if v, _ := p.check(t, cfg, unitLone, crossbar, false); v != 1 || p.cuts == 0 {
			t.Errorf("unit crossbar=%v lone packet: optimum %d with %d cuts, want 1 with the root cut", crossbar, v, p.cuts)
		}
		if v, _ := p.check(t, cfg, lone, crossbar, true); v != 9 || p.cuts == 0 {
			t.Errorf("weighted crossbar=%v lone packet: optimum %d with %d cuts, want 9 with the root cut", crossbar, v, p.cuts)
		}
	}

	starved := switchsim.Config{Inputs: 1, Outputs: 2, InputBuf: 2, OutputBuf: 2, CrossBuf: 1, Speedup: 1, Slots: 5}
	var flood, unitFlood packet.Sequence
	for t := 0; t < starved.Slots; t++ {
		for j := 0; j < 2; j++ {
			id := int64(2*t + j)
			flood = append(flood, packet.Packet{ID: id, Arrival: t, In: 0, Out: j, Value: 3 + id%2})
			unitFlood = append(unitFlood, packet.Packet{ID: id, Arrival: t, In: 0, Out: j, Value: 1})
		}
	}
	if v, _ := p.check(t, starved, unitFlood, false, false); v != 5 || p.cuts != 0 {
		t.Errorf("unit starved input: optimum %d with %d cuts, want 5 and none", v, p.cuts)
	}
	if v, _ := p.check(t, starved, flood, false, true); v != 20 || p.cuts != 0 {
		t.Errorf("weighted starved input: optimum %d with %d cuts, want 20 and none", v, p.cuts)
	}
}

// FuzzExactEquivalence fuzzes the packed-word solvers against the
// reference over geometry, buffers, speedup, packet count, arrival spread,
// horizon and value range — including inputs either side of every guard,
// where both must refuse in the same words. Sizes are held to what the
// reference solves in well under a second. It runs as a 30s CI smoke.
func FuzzExactEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(0x15), uint8(1), uint8(8), uint8(3), uint8(0), uint8(0))
	f.Add(int64(2), uint8(8), uint8(0x00), uint8(2), uint8(9), uint8(2), uint8(4), uint8(1))
	f.Add(int64(3), uint8(4), uint8(0x10), uint8(4), uint8(5), uint8(140), uint8(0), uint8(0))
	f.Add(int64(4), uint8(3), uint8(0x05), uint8(2), uint8(14), uint8(2), uint8(0), uint8(2|1<<2))
	f.Add(int64(5), uint8(3), uint8(0x19), uint8(1), uint8(9), uint8(3), uint8(6), uint8(3|2<<2))
	f.Add(int64(6), uint8(8), uint8(0x3f), uint8(5), uint8(15), uint8(20), uint8(0), uint8(2))
	shapes := [][2]int{{1, 1}, {1, 2}, {2, 1}, {2, 2}, {1, 4}, {4, 1}, {2, 3}, {3, 2}, {3, 3}}
	var p exactPair
	f.Fuzz(func(t *testing.T, seed int64, shape, bufs, speedup, nPkts, span, slots, mode uint8) {
		crossbar, weighted := mode&1 != 0, mode&2 != 0
		g := shapes[int(shape)%len(shapes)]
		cfg := switchsim.Config{Inputs: g[0], Outputs: g[1],
			InputBuf: 1 + int(bufs&3), OutputBuf: 1 + int(bufs>>2&3), CrossBuf: 1 + int(bufs>>4&3),
			Speedup: int(speedup) % (maxExactSpeedup + 2), Slots: int(slots) % 10}
		n, hi := int(nPkts)%11, int64(1)
		if weighted {
			n, hi = int(nPkts)%(maxWPackets+2), 1+int64(mode>>2)
			if crossbar {
				n = min(n, 10)
			}
		}
		rng := rand.New(rand.NewSource(seed))
		p.check(t, cfg, randomInstance(rng, cfg, n, 1+int(span)%150, hi), crossbar, weighted)
	})
}

// TestWordMemoGrowsAndResets drives the memo table through several levels
// and checks that a reset forgets everything and that refilling the kept
// levels allocates nothing.
func TestWordMemoGrowsAndResets(t *testing.T) {
	var m wordMemo
	const n = 10 * memoMinSlots
	fill := func() {
		m.reset()
		for k := uint64(0); k < n; k++ {
			m.put(k*k<<7|k, int64(k)-3)
		}
	}
	fill()
	if m.used != n || len(m.tab) < 2*n {
		t.Fatalf("after %d puts: used %d in %d slots", n, m.used, len(m.tab))
	}
	for k := uint64(0); k < n; k++ {
		if v, ok := m.get(k*k<<7 | k); !ok || v != int64(k)-3 {
			t.Fatalf("key %d: got (%d, %v)", k, v, ok)
		}
	}
	if _, ok := m.get(n * n << 7); ok {
		t.Error("found a key never stored")
	}
	m.reset()
	if _, ok := m.get(5*5<<7 | 5); ok || m.used != 0 || len(m.tab) != memoMinSlots {
		t.Errorf("reset kept state: used %d, %d slots", m.used, len(m.tab))
	}
	if allocs := testing.AllocsPerRun(4, fill); allocs != 0 {
		t.Errorf("refilling a warm memo allocates %.1f, want 0", allocs)
	}
}
