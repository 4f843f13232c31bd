package switchsim

import "qswitch/internal/packet"

// The columnar engines RunCIOQ and RunCrossbar offer each sequence to
// before the reference slot loop; nil until RegisterKernels.
var (
	cioqKernel     func(Config, CIOQPolicy, packet.Sequence) (*Result, int64, int64, error)
	crossbarKernel func(Config, CrossbarPolicy, packet.Sequence) (*Result, int64, int64, error)
)

// RegisterKernels installs the columnar engines. A kernel runs a sequence,
// validating it as the slot loop does (each packet as it is admitted, then
// those past the horizon, failing with BadSequence's text), and returns its
// Result with the slots it jumped and the jumps that covered them, counted
// as the slot loop counts them, or (nil, 0, 0, nil) to leave the run to
// the slot loop. Package fleet,
// which builds on this package and so cannot be imported by it, calls it
// from its init; nothing else does, and it must not race with a run.
func RegisterKernels(cioq func(Config, CIOQPolicy, packet.Sequence) (*Result, int64, int64, error),
	crossbar func(Config, CrossbarPolicy, packet.Sequence) (*Result, int64, int64, error)) {
	cioqKernel, crossbarKernel = cioq, crossbar
}

// runKernel offers a sequence to kernel k. ok is false when
// there is none or it declines; otherwise the run is flushed to the engine
// probes as the slot loop would flush it.
func runKernel[P any](k func(Config, P, packet.Sequence) (*Result, int64, int64, error), cfg Config, pol P, seq packet.Sequence) (res *Result, ok bool, err error) {
	if k == nil {
		return nil, false, nil
	}
	res, jumped, jumps, err := k(cfg, pol, seq)
	if res == nil && err == nil {
		return nil, false, nil
	}
	if err == nil {
		engineProbes.Load().RecordRun(int64(res.Slots), jumped, jumps)
	}
	return res, true, err
}
