package shard

import (
	"fmt"

	"qswitch/internal/adversary"
	"qswitch/internal/packet"
	"qswitch/internal/ratio"
	"qswitch/internal/switchsim"
)

// Executor evaluates decoded chunk specs. It is the one execution engine
// behind both worker processes and the coordinator's in-process fallback,
// so "execute remotely" and "execute locally" are the same code path fed
// the same decoded spec. One evaluator's lanes (ratio.NewLanes) are
// cached per (policy, judge, architecture), so a worker's fleet storage,
// judge scratch and sequence buffers stay warm across its whole chunk
// stream. An Executor is not safe for concurrent use; callers serialize
// (workers handle one chunk at a time).
type Executor struct {
	lanes map[laneKey]*ratio.Lanes
	outs  []ratio.SeedOutcome
}

type laneKey struct {
	policy, judge string
	crossbar      bool
}

// NewExecutor builds an empty executor.
func NewExecutor() *Executor {
	return &Executor{lanes: map[laneKey]*ratio.Lanes{}}
}

// RatioChunk evaluates the seeds [K0, K1) named by the spec. Per-seed
// failures travel inside the results; the error return is reserved for
// spec-resolution failures and for a geometry no seed can be drawn on,
// which are deterministic and must not be retried.
func (e *Executor) RatioChunk(msg *ratioChunkMsg) (*ratioResultMsg, error) {
	l, err := e.lanesFor(msg.Policy, msg.Judge, msg.Crossbar)
	if err != nil {
		return nil, err
	}
	gen, err := decodeGen(msg.Gen)
	if err != nil {
		return nil, err
	}
	if msg.K0 < 0 || msg.K1 < msg.K0 {
		return nil, fmt.Errorf("shard: bad seed range [%d, %d)", msg.K0, msg.K1)
	}
	if msg.Cfg.Inputs < 1 || msg.Cfg.Outputs < 1 { // the generators would panic drawing ports
		return nil, fmt.Errorf("shard: ratio chunk cfg: need at least 1 input and 1 output, got Inputs %d, Outputs %d", msg.Cfg.Inputs, msg.Cfg.Outputs)
	}
	e.outs = ratio.EvalChunk(msg.Cfg, l, gen, msg.BaseSeed, msg.K0, msg.K1, e.outs)
	return encodeOutcomes(e.outs), nil
}

// HuntChunk runs the restarts [R0, R1) of the adversary hunt named by the
// spec. A configuration the engines reject, or a search space outside the
// switch, fails the chunk: a restart would panic drawing ports or redraw
// rejected candidates, forever if the judge rejects them all.
func (e *Executor) HuntChunk(msg *huntChunkMsg) (*huntResultMsg, error) {
	eval, err := HuntEval(msg.Cfg, msg.Crossbar, msg.Policy, msg.Judge)
	if err != nil {
		return nil, err
	}
	if msg.R0 < 0 || msg.R1 < msg.R0 {
		return nil, fmt.Errorf("shard: bad restart range [%d, %d)", msg.R0, msg.R1)
	}
	if err := msg.Cfg.Check(msg.Crossbar); err != nil {
		return nil, fmt.Errorf("shard: hunt chunk cfg: %w", err)
	}
	if err := checkSearch(msg.Search, msg.Cfg); err != nil {
		return nil, err
	}
	res := adversary.HuntRange(msg.Search, eval, msg.R0, msg.R1)
	return &huntResultMsg{
		Seq: res.Seq, Ratio: res.Ratio, Restart: res.Restart,
		Accepted: res.Accepted, Tried: res.Tried,
	}, nil
}

// checkSearch rejects ports outside the configuration and a search with
// no slot or packet to place.
func checkSearch(o adversary.SearchOptions, cfg switchsim.Config) error {
	switch {
	case o.Inputs < 1 || o.Inputs > cfg.Inputs:
		return fmt.Errorf("shard: hunt chunk search: Inputs %d outside [1, %d]", o.Inputs, cfg.Inputs)
	case o.Outputs < 1 || o.Outputs > cfg.Outputs:
		return fmt.Errorf("shard: hunt chunk search: Outputs %d outside [1, %d]", o.Outputs, cfg.Outputs)
	case o.MaxSlots < 1:
		return fmt.Errorf("shard: hunt chunk search: MaxSlots %d < 1", o.MaxSlots)
	case o.MaxPackets < 1:
		return fmt.Errorf("shard: hunt chunk search: MaxPackets %d < 1", o.MaxPackets)
	}
	return nil
}

// lanesFor resolves a policy and a judge spec and caches the lanes they
// mint.
func (e *Executor) lanesFor(policy, judge string, crossbar bool) (*ratio.Lanes, error) {
	k := laneKey{policy, judge, crossbar}
	if l, ok := e.lanes[k]; ok {
		return l, nil
	}
	_, fleet, err := ResolvePolicy(policy, crossbar)
	if err != nil {
		return nil, err
	}
	j, err := ResolveJudge(judge, crossbar)
	if err != nil {
		return nil, err
	}
	l := ratio.NewLanes(j, fleet)
	e.lanes[k] = l
	return l, nil
}

// HuntEval builds the adversary fitness function for a (cfg, policy,
// judge) triple: OPT/ALG on valid sequences, with invalid or failing
// candidates discarded, behind an adversary.Memo so that a candidate the
// closure has already judged is not judged again. Every hunt backend —
// adversary.HuntRange in process, chunked hunts on workers — evaluates
// candidates through exactly this closure, which is what makes sharded
// hunts byte-identical to local ones.
func HuntEval(cfg switchsim.Config, crossbar bool, policy, judge string) (adversary.Ratio, error) {
	alg, _, err := ResolvePolicy(policy, crossbar)
	if err != nil {
		return nil, err
	}
	factory, err := ResolveJudge(judge, crossbar)
	if err != nil {
		return nil, err
	}
	j := factory()
	return adversary.Memo(func(seq packet.Sequence) (float64, bool) {
		if err := seq.Validate(cfg.Inputs, cfg.Outputs); err != nil {
			return 0, false
		}
		r, ok, err := ratio.Single(cfg, alg, j, seq)
		if err != nil {
			return 0, false
		}
		return r, ok
	}), nil
}
