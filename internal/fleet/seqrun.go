package fleet

import (
	"qswitch/internal/core"
	"qswitch/internal/packet"
	"qswitch/internal/switchsim"
)

// init makes a fleet of one the engine of every switchsim.RunCIOQ and
// RunCrossbar that routesCIOQ or BatchableCrossbar accepts.
func init() { switchsim.RegisterKernels(runCIOQ, runCrossbar) }

// pgRouteMaxPorts is the widest geometry whose PG sequence runs take the
// one-word fast path; from 65 ports the multi-word edge scan takes them
// again.
const pgRouteMaxPorts = 16

// routesCIOQ reports whether a sequence run of pol takes a kernel: every
// batchable policy and geometry but PG at 17–64 ports, where its kernel
// is no faster than the slot loop at batch one (ROADMAP 2(0)).
func routesCIOQ(cfg switchsim.Config, pol switchsim.CIOQPolicy) bool {
	if _, ok := pol.(*core.PG); ok {
		if ports := max(cfg.Inputs, cfg.Outputs); ports > pgRouteMaxPorts && ports <= maxPorts {
			return false
		}
	}
	return BatchableCIOQ(cfg, func() switchsim.CIOQPolicy { return pol })
}

// runCIOQ is the registered CIOQ kernel.
func runCIOQ(cfg switchsim.Config, pol switchsim.CIOQPolicy, seq packet.Sequence) (*switchsim.Result, int64, int64, error) {
	if !routesCIOQ(cfg, pol) {
		return nil, 0, 0, nil
	}
	return runOne(cfg, seq, func(batch int) (fleetEngine, error) {
		return NewCIOQFleet(cfg, func() switchsim.CIOQPolicy { return pol }, batch)
	})
}

// runCrossbar is the registered crossbar kernel.
func runCrossbar(cfg switchsim.Config, pol switchsim.CrossbarPolicy, seq packet.Sequence) (*switchsim.Result, int64, int64, error) {
	factory := func() switchsim.CrossbarPolicy { return pol }
	if !BatchableCrossbar(cfg, factory) {
		return nil, 0, 0, nil
	}
	return runOne(cfg, seq, func(batch int) (fleetEngine, error) { return NewCrossbarFleet(cfg, factory, batch) })
}

// runOne runs seq through the runners' kernel path on a fresh fleet of
// one from build, which counts it as one kernel batch in the fleet probes.
func runOne(cfg switchsim.Config, seq packet.Sequence, build func(batch int) (fleetEngine, error)) (*switchsim.Result, int64, int64, error) {
	var r runner
	out, err := r.run(cfg, []packet.Sequence{seq}, true, build, nil)
	if err != nil {
		return nil, 0, 0, err
	}
	jumped, jumps := r.f.jumpTally()
	return out[0], jumped, jumps, nil
}
