package fleet

import (
	"errors"

	"qswitch/internal/packet"
	"qswitch/internal/switchsim"
)

// init makes a fleet of one the engine of every switchsim.RunCIOQ and
// RunCrossbar that BatchableCIOQ or BatchableCrossbar accepts.
func init() { switchsim.RegisterKernels(runCIOQ, runCrossbar) }

// runCIOQ is the registered CIOQ kernel.
func runCIOQ(cfg switchsim.Config, pol switchsim.CIOQPolicy, seq packet.Sequence) (*switchsim.Result, int64, int64, error) {
	f, err := NewCIOQFleet(cfg, func() switchsim.CIOQPolicy { return pol }, 1)
	return runOne(cfg, seq, f, err)
}

// runCrossbar is the registered crossbar kernel.
func runCrossbar(cfg switchsim.Config, pol switchsim.CrossbarPolicy, seq packet.Sequence) (*switchsim.Result, int64, int64, error) {
	f, err := NewCrossbarFleet(cfg, func() switchsim.CrossbarPolicy { return pol }, 1)
	return runOne(cfg, seq, f, err)
}

// runOne runs seq on f, a fresh fleet of one, through the runners' kernel
// path, which counts it as one kernel batch in the fleet probes. A policy
// or geometry the fleet does not batch (err is ErrUnsupported) declines
// the run.
func runOne(cfg switchsim.Config, seq packet.Sequence, f fleetEngine, err error) (*switchsim.Result, int64, int64, error) {
	if errors.Is(err, ErrUnsupported) {
		return nil, 0, 0, nil
	}
	if err != nil {
		return nil, 0, 0, err
	}
	r := runner{cfg: cfg, judged: true, batchable: true, f: f}
	out, err := r.run(cfg, []packet.Sequence{seq}, nil, nil, nil)
	if err != nil {
		return nil, 0, 0, err
	}
	jumped, jumps := f.jumpTally()
	return out[0], jumped, jumps, nil
}
