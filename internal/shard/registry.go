package shard

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"

	"qswitch/internal/core"
	"qswitch/internal/packet"
	"qswitch/internal/ratio"
	"qswitch/internal/switchsim"
)

// The registry maps policy and judge spec strings — "gm", "pg(beta=2.41)",
// "cpg(beta=13.8,alpha=15.9)", "exactunit" — to executable objects. Spec
// strings are the only way algorithms cross the process boundary: the
// coordinator ships the string, the worker resolves it here, and because
// the same resolver backs the coordinator's in-process fallback, local and
// remote execution are behaviorally identical by construction. Policies
// resolve through core's policy table, judges and the test hooks below
// through the same grammar (core.ParseSpec).

// ResolvePolicy resolves a policy spec for the given switch model,
// returning both the scalar Alg and the batched FleetAlgFactory so every
// execution backend can be driven from one resolution.
func ResolvePolicy(spec string, crossbar bool) (ratio.Alg, ratio.FleetAlgFactory, error) {
	if name, params, err := core.ParseSpec(spec); err == nil && name == "failpolicy" {
		fp, err := core.SpecValues(spec, params, "fp")
		if err != nil {
			return nil, nil, err
		}
		alg, fleet := failPolicy(uint64(fp[0]), crossbar)
		return alg, fleet, nil
	}
	if crossbar {
		f, err := core.CrossbarFactory(spec)
		if err != nil {
			return nil, nil, err
		}
		return ratio.CrossbarAlg(f), ratio.CrossbarFleetAlg(f), nil
	}
	f, err := core.CIOQFactory(spec)
	if err != nil {
		return nil, nil, err
	}
	return ratio.CIOQAlg(f), ratio.CIOQFleetAlg(f), nil
}

// ResolveJudge resolves a judge spec for the given switch model.
func ResolveJudge(spec string, crossbar bool) (ratio.JudgeFactory, error) {
	name, params, err := core.ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	var cioq, xbar ratio.JudgeFactory
	switch name {
	case "exactunit":
		cioq, xbar = ratio.ExactUnitCIOQ, ratio.ExactUnitCrossbar
	case "exactweighted":
		cioq, xbar = ratio.ExactWeightedCIOQ, ratio.ExactWeightedCrossbar
	case "upperbound":
		cioq, xbar = ratio.UpperBoundCIOQ, ratio.UpperBoundCrossbar
	case "failjudge":
		fp, err := core.SpecValues(spec, params, "fp")
		if err != nil {
			return nil, err
		}
		return failJudge(uint64(fp[0]), crossbar), nil
	default:
		return nil, fmt.Errorf("shard: unknown judge spec %q", spec)
	}
	if _, err := core.SpecValues(spec, params); err != nil {
		return nil, err
	}
	if crossbar {
		return xbar, nil
	}
	return cioq, nil
}

// SequenceFingerprint names a sequence content-addressably: a CRC64 over
// its packets, folded below 2^30 so the fingerprint survives the float64
// parameter grammar exactly. It exists for the failpolicy/failjudge test
// hooks, which must trip on one specific seed's sequence in every backend
// — in-process, batched, or on a remote worker.
func SequenceFingerprint(seq packet.Sequence) uint64 {
	buf := make([]byte, 0, 40*len(seq))
	for _, p := range seq {
		buf = binary.BigEndian.AppendUint64(buf, uint64(p.ID))
		buf = binary.BigEndian.AppendUint64(buf, uint64(p.Arrival))
		buf = binary.BigEndian.AppendUint64(buf, uint64(p.In))
		buf = binary.BigEndian.AppendUint64(buf, uint64(p.Out))
		buf = binary.BigEndian.AppendUint64(buf, uint64(p.Value))
	}
	return crc64.Checksum(buf, crcTable) % (1 << 30)
}

// failPolicy is the "failpolicy(fp=N)" test hook: it behaves exactly like
// the model's baseline greedy policy except that any sequence whose
// fingerprint equals fp fails with a deterministic error. The scalar and
// batched forms produce the identical error text — the batched form
// rejects whole batches, relying on EvalChunk's single-sequence fallback
// to pin the failure to its true seed, which is precisely the attribution
// path the tests exercise.
func failPolicy(fp uint64, crossbar bool) (ratio.Alg, ratio.FleetAlgFactory) {
	var inner ratio.Alg
	var innerFleet ratio.FleetAlgFactory
	if crossbar {
		f := func() switchsim.CrossbarPolicy { return &core.CGU{} }
		inner, innerFleet = ratio.CrossbarAlg(f), ratio.CrossbarFleetAlg(f)
	} else {
		f := func() switchsim.CIOQPolicy { return &core.GM{} }
		inner, innerFleet = ratio.CIOQAlg(f), ratio.CIOQFleetAlg(f)
	}
	failErr := func() error { return fmt.Errorf("injected policy failure (fp=%d)", fp) }
	alg := func(cfg switchsim.Config, seq packet.Sequence) (int64, error) {
		if SequenceFingerprint(seq) == fp {
			return 0, failErr()
		}
		return inner(cfg, seq)
	}
	fleet := func() ratio.FleetAlg {
		fa := innerFleet()
		return func(cfg switchsim.Config, seqs []packet.Sequence) ([]int64, error) {
			for _, s := range seqs {
				if SequenceFingerprint(s) == fp {
					return nil, failErr()
				}
			}
			return fa(cfg, seqs)
		}
	}
	return alg, fleet
}

// failJudge is the "failjudge(fp=N)" test hook: the model's exact
// unit-value judge, except sequences with fingerprint fp fail
// deterministically.
func failJudge(fp uint64, crossbar bool) ratio.JudgeFactory {
	base := ratio.ExactUnitCIOQ
	if crossbar {
		base = ratio.ExactUnitCrossbar
	}
	return func() ratio.Judge {
		inner := base()
		return ratio.JudgeFunc(func(cfg switchsim.Config, seq packet.Sequence) (int64, error) {
			if SequenceFingerprint(seq) == fp {
				return 0, fmt.Errorf("injected judge failure (fp=%d)", fp)
			}
			return inner.Judge(cfg, seq)
		})
	}
}
