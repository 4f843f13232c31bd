package fleet

import (
	"errors"
	"fmt"
	"math/bits"

	"qswitch/internal/core"
	"qswitch/internal/packet"
	"qswitch/internal/switchsim"
)

// ErrUnsupported marks a policy family or geometry the columnar engine
// cannot batch; RunCIOQ and RunCrossbar fall back to per-instance scalar
// runs instead of surfacing it.
var ErrUnsupported = errors.New("fleet: not batchable")

// maxPorts is the single-word engines' port limit: their occupancy rows
// are single uint64 words. Above it only PG rides a columnar engine (the
// multi-word wide engine, up to maxWidePorts).
const maxPorts = 64

// BatchableCIOQ reports whether the policy produced by factory rides a
// columnar engine for this configuration: any policy with a batched kernel
// up to maxPorts, and PG alone up to maxWidePorts.
func BatchableCIOQ(cfg switchsim.Config, factory func() switchsim.CIOQPolicy) bool {
	pol := factory()
	if cfg.Inputs <= maxPorts && cfg.Outputs <= maxPorts {
		return cioqKernelFor(pol) != nil
	}
	_, pg := pol.(*core.PG)
	return pg && cfg.Inputs <= maxWidePorts && cfg.Outputs <= maxWidePorts
}

// BatchableCrossbar is BatchableCIOQ for crossbar policies, which batch
// only up to maxPorts.
func BatchableCrossbar(cfg switchsim.Config, factory func() switchsim.CrossbarPolicy) bool {
	return crossbarKernelFor(factory()) != nil && cfg.Inputs <= maxPorts && cfg.Outputs <= maxPorts
}

// fleetEngine is the runner-facing surface shared by the single-word and
// wide CIOQ engines.
type fleetEngine interface {
	Reset(seqs []packet.Sequence) error
	Step() bool
	Results() ([]*switchsim.Result, error)
	batchCap() int
	passes() int64
}

// RunCIOQ simulates the policy family produced by factory on every
// sequence and returns one Result per sequence, in order. Batchable
// policies run on the columnar engine (one construction and one policy
// loop amortized across the whole batch); everything else falls back to
// per-instance switchsim.RunCIOQ with a fresh policy per run. Results are
// bit-identical between the two paths. Callers with a stream of batches
// should hold a CIOQRunner instead, which reuses one fleet across calls.
func RunCIOQ(cfg switchsim.Config, factory func() switchsim.CIOQPolicy, seqs []packet.Sequence) ([]*switchsim.Result, error) {
	return NewCIOQRunner(factory).Run(cfg, seqs)
}

// RunCrossbar is RunCIOQ for buffered-crossbar policies.
func RunCrossbar(cfg switchsim.Config, factory func() switchsim.CrossbarPolicy, seqs []packet.Sequence) ([]*switchsim.Result, error) {
	return NewCrossbarRunner(factory).Run(cfg, seqs)
}

// CIOQRunner runs batch after batch of one CIOQ policy family, reusing a
// single columnar fleet across calls — the ratio-harness chunk-stream
// shape, where constructing a fleet per chunk wastes the construction.
// The fleet is (re)built only when the configuration changes or a batch
// outgrows the current storage; shrinking batches (a chunk stream's short
// final chunk) reuse it. Runners are not safe for concurrent use; results
// are bit-identical to RunCIOQ.
type CIOQRunner struct {
	factory func() switchsim.CIOQPolicy
	cfg     switchsim.Config
	f       fleetEngine
}

// NewCIOQRunner creates a runner for the policy family produced by
// factory. No storage is sized until the first batchable Run.
func NewCIOQRunner(factory func() switchsim.CIOQPolicy) *CIOQRunner {
	return &CIOQRunner{factory: factory}
}

// Run simulates every sequence under cfg and returns one Result per
// sequence, in order, exactly as RunCIOQ. The returned slice and Results
// are valid until the next Run.
func (r *CIOQRunner) Run(cfg switchsim.Config, seqs []packet.Sequence) ([]*switchsim.Result, error) {
	if len(seqs) == 0 {
		return nil, nil
	}
	if !BatchableCIOQ(cfg, r.factory) {
		out := make([]*switchsim.Result, len(seqs))
		for k, seq := range seqs {
			res, err := switchsim.RunCIOQ(cfg, r.factory(), seq)
			if err != nil {
				return nil, err
			}
			out[k] = res
		}
		fleetProbes.Load().RecordFallback(int64(len(seqs)))
		return out, nil
	}
	if r.f == nil || r.cfg != cfg || r.f.batchCap() < len(seqs) {
		var f fleetEngine
		var err error
		if cfg.Inputs <= maxPorts && cfg.Outputs <= maxPorts {
			f, err = NewCIOQFleet(cfg, r.factory, len(seqs))
		} else {
			f, err = newWideCIOQFleet(cfg, r.factory, len(seqs))
		}
		if err != nil {
			return nil, err
		}
		r.f, r.cfg = f, cfg
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

// CrossbarRunner is CIOQRunner for buffered-crossbar policy families.
type CrossbarRunner struct {
	factory func() switchsim.CrossbarPolicy
	cfg     switchsim.Config
	f       *CrossbarFleet
}

// NewCrossbarRunner creates a runner for the policy family produced by
// factory.
func NewCrossbarRunner(factory func() switchsim.CrossbarPolicy) *CrossbarRunner {
	return &CrossbarRunner{factory: factory}
}

// Run simulates every sequence under cfg and returns one Result per
// sequence, in order, exactly as RunCrossbar. The returned slice and
// Results are valid until the next Run.
func (r *CrossbarRunner) Run(cfg switchsim.Config, seqs []packet.Sequence) ([]*switchsim.Result, error) {
	if len(seqs) == 0 {
		return nil, nil
	}
	if !BatchableCrossbar(cfg, r.factory) {
		out := make([]*switchsim.Result, len(seqs))
		for k, seq := range seqs {
			res, err := switchsim.RunCrossbar(cfg, r.factory(), seq)
			if err != nil {
				return nil, err
			}
			out[k] = res
		}
		fleetProbes.Load().RecordFallback(int64(len(seqs)))
		return out, nil
	}
	if r.f == nil || r.cfg != cfg || r.f.batch < len(seqs) {
		f, err := NewCrossbarFleet(cfg, r.factory, len(seqs))
		if err != nil {
			return nil, err
		}
		r.f, r.cfg = f, cfg
	}
	if err := r.f.Reset(seqs); err != nil {
		return nil, err
	}
	passBefore := r.f.passCount
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
		p.RecordKernel(int64(len(seqs)), slots, r.f.passCount-passBefore)
	}
	return out, nil
}

// checkResidual detects malformed sequences at retirement: once an
// instance reaches its horizon, every unconsumed packet must be due at or
// beyond it — a remaining packet due earlier means the sequence was not
// sorted by arrival (the cursor skipped it), which the streaming
// admission loop cannot see up front without a separate validation pass.
func checkResidual(k int, seq packet.Sequence, next, horizon int) error {
	for x := next; x < len(seq); x++ {
		if seq[x].Arrival < horizon {
			return fmt.Errorf("fleet: instance %d: packet %d due at slot %d was never admitted: sequence not sorted by arrival", k, x, seq[x].Arrival)
		}
	}
	return nil
}

// sleeper is one quiescent instance waiting for its next arrival slot.
type sleeper struct {
	wake int
	k    int32
}

// sleepPush adds s to the min-heap (ordered by wake slot) in place.
func sleepPush(h []sleeper, s sleeper) []sleeper {
	h = append(h, s)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].wake <= h[i].wake {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

// sleepPop removes and returns the earliest-waking sleeper.
func sleepPop(h []sleeper) ([]sleeper, sleeper) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < len(h) && h[l].wake < h[s].wake {
			s = l
		}
		if r < len(h) && h[r].wake < h[s].wake {
			s = r
		}
		if s == i {
			break
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
	return h, top
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
