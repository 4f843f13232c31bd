package shard

import (
	"fmt"

	"qswitch/internal/adversary"
	"qswitch/internal/packet"
	"qswitch/internal/ratio"
	"qswitch/internal/switchsim"
)

// Executor evaluates decoded chunk specs. It is the one execution engine
// behind both qswitchd workers and the coordinator's in-process fallback,
// so "execute remotely" and "execute locally" are the same code path fed
// the same decoded spec. Resolved policy fleets and judges are cached per
// spec — the PR 5 reuse discipline — so a worker's storage stays warm
// across its whole chunk stream. An Executor is not safe for concurrent
// use; callers serialize (workers handle one chunk at a time).
type Executor struct {
	algs   map[execKey]ratio.FleetAlg
	judges map[execKey]ratio.Judge
	outs   []ratio.SeedOutcome
}

type execKey struct {
	spec     string
	crossbar bool
}

// NewExecutor builds an empty executor.
func NewExecutor() *Executor {
	return &Executor{
		algs:   map[execKey]ratio.FleetAlg{},
		judges: map[execKey]ratio.Judge{},
	}
}

// RatioChunk evaluates the seeds [K0, K1) named by the spec. Per-seed
// failures travel inside the results; the error return is reserved for
// spec-resolution failures, which are deterministic and must not be
// retried.
func (e *Executor) RatioChunk(msg *ratioChunkMsg) (*ratioResultMsg, error) {
	a, err := e.alg(msg.Policy, msg.Crossbar)
	if err != nil {
		return nil, err
	}
	j, err := e.judge(msg.Judge, msg.Crossbar)
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
	e.outs = ratio.EvalChunk(msg.Cfg, a, j, gen, msg.BaseSeed, msg.K0, msg.K1, e.outs)
	return encodeOutcomes(e.outs), nil
}

// HuntChunk runs the restarts [R0, R1) of the adversary hunt named by the
// spec.
func (e *Executor) HuntChunk(msg *huntChunkMsg) (*huntResultMsg, error) {
	eval, err := HuntEval(msg.Cfg, msg.Crossbar, msg.Policy, msg.Judge)
	if err != nil {
		return nil, err
	}
	if msg.R0 < 0 || msg.R1 < msg.R0 {
		return nil, fmt.Errorf("shard: bad restart range [%d, %d)", msg.R0, msg.R1)
	}
	res := adversary.HuntRange(msg.Search, eval, msg.R0, msg.R1)
	return &huntResultMsg{
		Seq: res.Seq, Ratio: res.Ratio, Restart: res.Restart,
		Accepted: res.Accepted, Tried: res.Tried,
	}, nil
}

// alg resolves and caches a policy spec's fleet alg.
func (e *Executor) alg(spec string, crossbar bool) (ratio.FleetAlg, error) {
	k := execKey{spec, crossbar}
	if a, ok := e.algs[k]; ok {
		return a, nil
	}
	_, fleet, err := ResolvePolicy(spec, crossbar)
	if err != nil {
		return nil, err
	}
	a := fleet()
	e.algs[k] = a
	return a, nil
}

// judge resolves and caches a judge spec's judge.
func (e *Executor) judge(spec string, crossbar bool) (ratio.Judge, error) {
	k := execKey{spec, crossbar}
	if j, ok := e.judges[k]; ok {
		return j, nil
	}
	factory, err := ResolveJudge(spec, crossbar)
	if err != nil {
		return nil, err
	}
	j := factory()
	e.judges[k] = j
	return j, nil
}

// HuntEval builds the adversary fitness function for a (cfg, policy,
// judge) triple: OPT/ALG on valid sequences, with invalid or failing
// candidates discarded, behind an adversary.Memo so that a candidate the
// closure has already judged is not judged again. Every hunt backend —
// adversary.Hunt in process, chunked hunts on workers — evaluates
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
