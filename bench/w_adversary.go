package main

import (
	"fmt"

	"qswitch/internal/adversary"
	"qswitch/internal/core"
	"qswitch/internal/packet"
	"qswitch/internal/ratio"
	"qswitch/internal/shard"
	"qswitch/internal/switchsim"
)

// adversaryHunt is the search tier: restart hill-climbs against GM and CGU
// judged by the exact unit optimum — per-candidate switch construction and
// a tiny exact solve in a tight loop — plus the adaptive anti-greedy
// adversary, the only user of the steppers (a third copy of the engine
// loop).
//
// What a candidate costs the exact judge grows steeply with its packets and
// its horizon, so a hunt's time hangs on a few percent of its candidates:
// one pass's worth of restarts read 36 % apart (inter-quartile, CGU; 11 %
// GM) from seed to seed whatever the split between restarts and
// iterations. Two things keep the workload's figures steady across seeds.
// The run is one long hunt taken in slices — round k hunts restarts
// [k*Restarts, (k+1)*Restarts) through adversary.HuntRange, the slicing the
// hunts were made shardable for — so a run's medians rest on every slice it
// had time for, not on one. And the cell with the heavier tail (CGU) gets
// the smaller share of the pass, the seed-free adaptive runs the larger.
type adversaryHunt struct {
	seed     int64
	cfg      switchsim.Config
	search   adversary.SearchOptions
	cguIters int // hunt_cgu's iterations: its exact crossbar judge costs ~3x the CIOQ one, with the heavier tail
	adaptive int // AdaptiveAntiGreedy runs per pass
}

func (w *adversaryHunt) setup(e *env) error {
	w.seed = e.seed
	w.cfg = switchsim.Config{Inputs: 2, Outputs: 2, InputBuf: 1, OutputBuf: 4, CrossBuf: 1, Speedup: 2}
	w.search = adversary.SearchOptions{
		Inputs: 2, Outputs: 2, MaxSlots: 600, MaxPackets: 24, MaxValue: 1,
		Iterations: e.pick(500, 60), Seed: e.seed, Restarts: e.pick(32, 4),
	}
	w.cguIters = e.pick(80, 30)
	w.adaptive = e.pick(750, 4)
	return nil
}

func (w *adversaryHunt) pass(p *pass) {
	w.hunt(p, "hunt_gm", "gm", false, w.search.Iterations)
	w.hunt(p, "hunt_cgu", "cgu", true, w.cguIters)
	p.cell("adaptive_gm", func(sp *span) (string, int64, int64, error) {
		cfg := adversary.IQLowerBoundCfg(64)
		var slots, benefit int64
		run := p.tr.begin(sp, "switchsim.stepper")
		defer func() { run.end(int64(w.adaptive)) }()
		for i := 0; i < w.adaptive; i++ {
			seq, b, err := adversary.AdaptiveAntiGreedy(cfg, &core.GM{}, 48)
			if err != nil {
				return "", int64(w.adaptive), slots, err
			}
			slots += int64(cfg.HorizonFor(seq))
			benefit = b
		}
		return fmt.Sprintf("benefit=%d slots=%d", benefit, slots), int64(w.adaptive), slots, nil
	})
}

// hunt runs one restart hill-climb cell on the round's slice of restarts.
// Every candidate the search evaluates goes through a closure that adds the
// candidate's horizon to the cell's switch-slot count; on a traced pass the
// evaluator is rebuilt from the same parts shard.HuntEval assembles, with
// the policy run and the judge decorated — the golden holds the two to the
// same best instance.
func (w *adversaryHunt) hunt(p *pass, cell, policy string, crossbar bool, iterations int) {
	p.cellOfRound(p.round, cell, func(sp *span) (string, int64, int64, error) {
		ops := int64(w.search.Restarts)
		var me, ma, mj timer
		eval, err := w.evaluator(p.tr, policy, crossbar, &ma, &mj)
		if err != nil {
			return "", ops, 0, err
		}
		var slots int64
		counted := func(seq packet.Sequence) (float64, bool) {
			slots += int64(w.cfg.HorizonFor(seq))
			return eval(seq)
		}
		if p.tr != nil {
			inner := counted
			counted = func(seq packet.Sequence) (float64, bool) {
				t0 := me.start()
				r, ok := inner(seq)
				me.stop(t0, 1)
				return r, ok
			}
		}
		search := p.tr.begin(sp, "adversary.search")
		opts := w.search
		opts.Iterations = iterations
		r0 := p.round * opts.Restarts
		res := adversary.HuntRange(opts, counted, r0, r0+opts.Restarts)
		ev := p.tr.flush(search, "adversary.eval", &me)
		p.tr.flush(ev, "switchsim.run", &ma)
		p.tr.flush(ev, "offline.judge", &mj)
		search.end(int64(res.Tried))
		text := fmt.Sprintf("ratio=%x witness=%x restart=%d accepted=%d tried=%d",
			res.Ratio, shard.SequenceFingerprint(res.Seq), res.Restart, res.Accepted, res.Tried)
		return text, ops, slots, nil
	})
}

func (w *adversaryHunt) evaluator(tr *tracer, policy string, crossbar bool, ma, mj *timer) (adversary.Ratio, error) {
	if tr == nil {
		return shard.HuntEval(w.cfg, crossbar, policy, "exactunit")
	}
	alg, _, err := shard.ResolvePolicy(policy, crossbar)
	if err != nil {
		return nil, err
	}
	factory, err := shard.ResolveJudge("exactunit", crossbar)
	if err != nil {
		return nil, err
	}
	alg, judge := timedAlg(alg, ma), timedJudge{factory(), mj}
	return func(seq packet.Sequence) (float64, bool) {
		if seq.Validate(w.cfg.Inputs, w.cfg.Outputs) != nil {
			return 0, false
		}
		r, ok, err := ratio.Single(w.cfg, alg, judge, seq)
		return r, ok && err == nil
	}, nil
}

func (w *adversaryHunt) layers(lv *layerView) map[string]float64 {
	search, eval := lv.ix.sum("adversary.search", ""), lv.ix.sum("adversary.eval", "")
	out := map[string]float64{
		"adversary.evals_per_s":                  0,
		"adversary.eval_busy_frac":               lv.frac("adversary.eval", ""),
		"adversary.search_self_frac":             0,
		"offline.judge_busy_frac.adversary_hunt": lv.frac("offline.judge", ""),
		"switchsim.stepper_ns_per_run":           lv.ix.sum("switchsim.stepper", "").perItem(),
	}
	if search.ns > 0 {
		out["adversary.evals_per_s"] = float64(eval.calls) / (float64(search.ns) / 1e9)
		out["adversary.search_self_frac"] = float64(lv.ix.selfSum("adversary.search", "")) / lv.passNS()
	}
	return out
}

func (w *adversaryHunt) close() error { return nil }
