package fleet

import (
	"errors"
	"math/bits"

	"qswitch/internal/packet"
	"qswitch/internal/switchsim"
)

// ErrUnsupported marks a policy family or geometry the columnar engine
// cannot batch; CIOQRunner and CrossbarRunner fall back to per-instance
// scalar runs instead of surfacing it.
var ErrUnsupported = errors.New("fleet: not batchable")

// maxPorts is the port limit of every kernel that reads one-word
// occupancy rows: all crossbar kernels and every CIOQ kernel but PG.
const maxPorts = 64

// maxWidePorts is PG's port limit: the CIOQ engine's occupancy rows are
// then up to 8 words long. Beyond it the runners fall back to scalar runs.
const maxWidePorts = 512

// BatchableCIOQ reports whether the policy produced by factory rides the
// columnar engine for this configuration: any policy with a batched
// kernel up to maxPorts, and PG up to maxWidePorts.
func BatchableCIOQ(cfg switchsim.Config, factory func() switchsim.CIOQPolicy) bool {
	kern := cioqKernelFor(factory())
	return kern != nil && cfg.Inputs <= kern.portLimit() && cfg.Outputs <= kern.portLimit()
}

// BatchableCrossbar is BatchableCIOQ for crossbar policies, which batch
// only up to maxPorts.
func BatchableCrossbar(cfg switchsim.Config, factory func() switchsim.CrossbarPolicy) bool {
	return crossbarKernelFor(factory()) != nil && cfg.Inputs <= maxPorts && cfg.Outputs <= maxPorts
}

// fleetEngine is the runner-facing surface of the CIOQ and the crossbar
// engine; all but Reset come from the embedded lockstep.
type fleetEngine interface {
	Reset(seqs []packet.Sequence) error
	Step() bool
	Results() ([]*switchsim.Result, error)
	batchCap() int
	passes() int64
	jumpTally() (jumped, jumps int64)
}

// runner is the state both runners share: the configuration of the last
// Run, whether the family batches under it, and the columnar fleet built
// for it, reused across calls.
type runner struct {
	cfg       switchsim.Config
	judged    bool // batchable holds the verdict for cfg
	batchable bool
	f         fleetEngine
}

// run simulates every sequence under cfg and returns one Result per
// sequence, in order. The batchable verdict is asked for only when the
// configuration changes. Batchable families run on the fleet, which build
// constructs only when the configuration changes or a batch outgrows the
// current storage; everything else loops scalar over the sequences with a
// fresh policy per run. Results are bit-identical between the two paths.
func (r *runner) run(cfg switchsim.Config, seqs []packet.Sequence, batchable func() bool,
	build func(batch int) (fleetEngine, error), scalar func(packet.Sequence) (*switchsim.Result, error)) ([]*switchsim.Result, error) {
	if len(seqs) == 0 {
		return nil, nil
	}
	if !r.judged || r.cfg != cfg {
		r.cfg, r.judged, r.batchable, r.f = cfg, true, batchable(), nil
	}
	if !r.batchable {
		out := make([]*switchsim.Result, len(seqs))
		for k, seq := range seqs {
			res, err := scalar(seq)
			if err != nil {
				return nil, err
			}
			out[k] = res
		}
		fleetProbes.Load().RecordFallback(int64(len(seqs)))
		return out, nil
	}
	if r.f == nil || r.f.batchCap() < len(seqs) {
		f, err := build(len(seqs))
		if err != nil {
			return nil, err
		}
		r.f = f
	}
	if err := r.f.Reset(seqs); err != nil {
		return nil, err
	}
	passBefore := r.f.passes()
	for r.f.Step() {
	}
	out, err := r.f.Results()
	if err != nil {
		return nil, err
	}
	if p := fleetProbes.Load(); p != nil {
		var slots int64
		for _, res := range out {
			slots += int64(res.Slots)
		}
		p.RecordKernel(int64(len(seqs)), slots, r.f.passes()-passBefore)
	}
	return out, nil
}

// CIOQRunner runs batch after batch of one CIOQ policy family, reusing a
// single columnar fleet across calls — the ratio-harness chunk-stream
// shape, where constructing a fleet per chunk wastes the construction.
// The fleet is (re)built only when the configuration changes or a batch
// outgrows the current storage; shrinking batches (a chunk stream's short
// final chunk) reuse it. Policies without a batched kernel, and
// geometries beyond the columnar engines, run per-instance
// switchsim.RunCIOQ instead, bit-identically. Runners are not safe for
// concurrent use.
type CIOQRunner struct {
	factory func() switchsim.CIOQPolicy
	runner
}

// NewCIOQRunner creates a runner for the policy family produced by
// factory. No storage is sized until the first batchable Run.
func NewCIOQRunner(factory func() switchsim.CIOQPolicy) *CIOQRunner {
	return &CIOQRunner{factory: factory}
}

// Run simulates every sequence under cfg and returns one Result per
// sequence, in order. The returned slice and Results are valid until the
// next Run.
func (r *CIOQRunner) Run(cfg switchsim.Config, seqs []packet.Sequence) ([]*switchsim.Result, error) {
	return r.run(cfg, seqs, func() bool { return BatchableCIOQ(cfg, r.factory) },
		func(batch int) (fleetEngine, error) { return NewCIOQFleet(cfg, r.factory, batch) },
		func(seq packet.Sequence) (*switchsim.Result, error) { return switchsim.RunCIOQ(cfg, r.factory(), seq) })
}

// CrossbarRunner is CIOQRunner for buffered-crossbar policy families.
type CrossbarRunner struct {
	factory func() switchsim.CrossbarPolicy
	runner
}

// NewCrossbarRunner creates a runner for the policy family produced by
// factory.
func NewCrossbarRunner(factory func() switchsim.CrossbarPolicy) *CrossbarRunner {
	return &CrossbarRunner{factory: factory}
}

// Run simulates every sequence under cfg and returns one Result per
// sequence, in order, as (*CIOQRunner).Run does.
func (r *CrossbarRunner) Run(cfg switchsim.Config, seqs []packet.Sequence) ([]*switchsim.Result, error) {
	return r.run(cfg, seqs, func() bool { return BatchableCrossbar(cfg, r.factory) },
		func(batch int) (fleetEngine, error) { return NewCrossbarFleet(cfg, r.factory, batch) },
		func(seq packet.Sequence) (*switchsim.Result, error) {
			return switchsim.RunCrossbar(cfg, r.factory(), seq)
		})
}

// firstFrom returns the smallest set bit of w in rotated order starting
// at `start` (the smallest bit >= start if any, else the smallest bit
// overall), or -1 when w is zero. It is bitset.Mask.FirstFrom specialized
// to the fleet's single-word masks; start must be in [0, 64).
func firstFrom(w uint64, start int) int {
	lowMask := uint64(1)<<uint(start) - 1
	if x := w &^ lowMask; x != 0 {
		return bits.TrailingZeros64(x)
	}
	if x := w & lowMask; x != 0 {
		return bits.TrailingZeros64(x)
	}
	return -1
}

// allOnes returns the mask with bits [0, n) set; n in [1, 64].
func allOnes(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<uint(n) - 1
}

// ceilPow2 returns the smallest power of two >= v.
func ceilPow2(v int) int {
	p := 1
	for p < v {
		p <<= 1
	}
	return p
}
