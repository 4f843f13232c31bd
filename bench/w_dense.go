package main

import (
	"math/rand"

	"qswitch/internal/core"
	"qswitch/internal/packet"
	"qswitch/internal/switchsim"
)

// denseSwitch is the paper's scheduling-cost regime: a 64-port switch at
// load 0.95, where every slot is simulated and admit/transmit, the four
// policies, the matchings and the queues do all the work. No judge runs,
// no idle or quiescent jump ever fires, and the two sequences are
// materialized in set-up, so the generator is outside the timed region.
type denseSwitch struct {
	cfg            switchsim.Config
	unit, weighted packet.Sequence
}

func (w *denseSwitch) setup(e *env) error {
	const n = 64
	slots := e.pick(20_000, 400)
	w.cfg = switchsim.Config{
		Inputs: n, Outputs: n, InputBuf: 4, OutputBuf: 4, CrossBuf: 2,
		Speedup: 1, Slots: slots,
	}
	w.unit = packet.Bernoulli{Load: 0.95}.
		Generate(rand.New(rand.NewSource(e.seed)), n, n, slots)
	w.weighted = packet.Bernoulli{Load: 0.95, Values: packet.UniformValues{Hi: 100}}.
		Generate(rand.New(rand.NewSource(e.seed+1)), n, n, slots)
	return nil
}

func (w *denseSwitch) pass(p *pass) {
	p.cell("gm", func(sp *span) (string, int64, int64, error) {
		return p.simulate(sp, w.cfg, func(s *sim) (*switchsim.Result, error) {
			return switchsim.RunCIOQ(w.cfg, s.cioq(&core.GM{}), w.unit)
		})
	})
	p.cell("pg", func(sp *span) (string, int64, int64, error) {
		return p.simulate(sp, w.cfg, func(s *sim) (*switchsim.Result, error) {
			return switchsim.RunCIOQ(w.cfg, s.cioq(&core.PG{}), w.weighted)
		})
	})
	p.cell("cgu", func(sp *span) (string, int64, int64, error) {
		return p.simulate(sp, w.cfg, func(s *sim) (*switchsim.Result, error) {
			return switchsim.RunCrossbar(w.cfg, s.crossbar(&core.CGU{}), w.unit)
		})
	})
	p.cell("cpg", func(sp *span) (string, int64, int64, error) {
		return p.simulate(sp, w.cfg, func(s *sim) (*switchsim.Result, error) {
			return switchsim.RunCrossbar(w.cfg, s.crossbar(&core.CPG{}), w.weighted)
		})
	})
}

func (w *denseSwitch) layers(lv *layerView) map[string]float64 {
	out := map[string]float64{
		"core.policy_busy_frac.dense_switch":       lv.frac("core.schedule", ""),
		"obs.probes_on_overhead_frac.dense_switch": lv.overhead("probed"),
	}
	for _, c := range []string{"gm", "pg", "cgu", "cpg"} {
		run := lv.ix.sum("switchsim.run", "cell:"+c)
		out["switchsim.dense_ns_per_slot."+c] = float64(lv.ix.selfSum("switchsim.run", "cell:"+c)) / float64(max(run.items, 1))
		out["core.schedule_ns_per_call."+c] = lv.ix.sum("core.schedule", "cell:"+c).perCall()
	}
	return out
}

func (w *denseSwitch) close() error { return nil }
