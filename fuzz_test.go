package qswitch

import (
	"errors"
	"math/rand"
	"testing"

	"qswitch/internal/core"
	"qswitch/internal/offline"
)

// FuzzPaperBounds checks the paper's theorems on inputs nobody chose:
// random micro instances, judged by the exact offline optimum, on which GM
// is 3-competitive (Theorem 1, unit values), PG at its default beta
// 3+2*sqrt(2)-competitive (Theorem 2), CGU 3-competitive (Theorem 3, unit
// values) and CPG at its default parameters ~14.83-competitive (Theorem
// 4) — and on which no registered policy, paper's or baseline, delivers
// more than the optimum, nor the optimum more than the combined relaxation
// bound (offline.CombinedUpperBound) that judges every instance too large
// for the exact solvers. It runs as a 30s CI smoke.
func FuzzPaperBounds(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0x15), uint8(0), uint8(8), uint8(3), uint8(0), uint8(0))
	f.Add(int64(2), uint8(3), uint8(0x00), uint8(1), uint8(12), uint8(2), uint8(5), uint8(4))
	f.Add(int64(3), uint8(8), uint8(0x10), uint8(2), uint8(9), uint8(4), uint8(0), uint8(0))
	f.Add(int64(4), uint8(1), uint8(0x2a), uint8(1), uint8(13), uint8(1), uint8(3), uint8(60))
	f.Fuzz(func(t *testing.T, seed int64, shape, bufs, speedup, nPkts, span, slots, values uint8) {
		// values == 0: unit packets on up to 3x3 ports; otherwise values in
		// [1, values] on the 2x2 ports the weighted search admits.
		side := 3
		if values > 0 {
			side = 2
		}
		cfg := Config{Inputs: 1 + int(shape)%side, Outputs: 1 + int(shape)/side%side,
			InputBuf: 1 + int(bufs&3)%3, OutputBuf: 1 + int(bufs>>2&3)%3, CrossBuf: 1 + int(bufs>>4&1),
			Speedup: 1 + int(speedup)%2, Slots: int(slots) % 9, Validate: true}
		rng := rand.New(rand.NewSource(seed))
		seq := make(Sequence, int(nPkts)%15)
		for k := range seq {
			seq[k] = Packet{ID: int64(k), Arrival: rng.Intn(1 + int(span)%5),
				In: rng.Intn(cfg.Inputs), Out: rng.Intn(cfg.Outputs), Value: 1 + rng.Int63n(max(int64(values), 1))}
		}
		seq = seq.Normalize()

		within := func(model, name string, opt, alg int64, bound float64) {
			if alg > opt {
				t.Fatalf("%s %s delivers %d, more than the optimum %d\ncfg=%+v seq=%v", model, name, alg, opt, cfg, seq)
			}
			if bound > 0 && float64(opt) > bound*float64(alg)+1e-9 {
				t.Fatalf("%s %s: OPT %d / ALG %d exceeds the proven bound %.4f\ncfg=%+v seq=%v",
					model, name, opt, alg, bound, cfg, seq)
			}
		}
		unitOnly := func(bound float64) float64 {
			if seq.IsUnit() {
				return bound
			}
			return 0
		}
		sound := func(crossbar bool, opt int64) {
			ub, err := offline.CombinedUpperBound(cfg, seq, crossbar)
			if err != nil {
				t.Fatal(err)
			}
			if opt > ub {
				t.Fatalf("crossbar=%v: the optimum %d exceeds the relaxation bound %d\ncfg=%+v seq=%v", crossbar, opt, ub, cfg, seq)
			}
		}
		if opt, err := ExactOptimum(cfg, seq, false); err == nil {
			sound(false, opt)
			bounds := map[string]float64{"gm": unitOnly(3), "pg": core.PGRatio(DefaultBetaPG())}
			for _, name := range CIOQPolicyNames() {
				res, err := SimulateCIOQ(cfg, name, seq)
				if err != nil {
					t.Fatalf("cioq %s: %v", name, err)
				}
				within("cioq", name, opt, res.M.Benefit, bounds[name])
			}
		} else if !errors.Is(err, offline.ErrTooLarge) {
			t.Fatal(err)
		}
		if opt, err := ExactOptimum(cfg, seq, true); err == nil {
			sound(true, opt)
			bounds := map[string]float64{"cgu": unitOnly(3), "cpg": core.CPGRatioClosedForm()}
			for _, name := range CrossbarPolicyNames() {
				res, err := SimulateCrossbar(cfg, name, seq)
				if err != nil {
					t.Fatalf("crossbar %s: %v", name, err)
				}
				within("crossbar", name, opt, res.M.Benefit, bounds[name])
			}
		} else if !errors.Is(err, offline.ErrTooLarge) {
			t.Fatal(err)
		}
	})
}
