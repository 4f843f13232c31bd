// Package adversary builds worst-case arrival sequences. It contains
// hand-crafted lower-bound constructions from the literature the paper
// cites (Section 1.2/4: all IQ-model lower bounds carry over to CIOQ and
// buffered crossbar switches), a local-search fuzzer (Search) that
// actively hunts for high-ratio instances against any policy, and a fully
// adaptive adversary (AdaptiveAntiGreedy) that observes the policy's
// queues through the stepper API after every slot.
//
// # Invariants
//
//   - Every construction returns a normalized packet.Sequence valid for
//     the geometry its *Cfg companion describes, so it can be replayed by
//     any engine or judged by any offline solver.
//   - All randomness is seeded: constructions, the fuzzer's restarts and
//     mutations, and therefore every experiment built on them are
//     deterministic.
//   - The fuzzer treats its Ratio evaluator as a black box and discards
//     invalid mutants; it never exceeds a proven upper bound on a correct
//     implementation — E8 uses exactly this as a squeeze test.
//   - Memo, which every hunt evaluates through (shard.HuntEval, E8b),
//     answers a sequence its evaluator has already judged from a bounded
//     table keyed on the sequence's full content. The fuzzer still asks for
//     every candidate in order, so a hunt through Memo keeps the bare
//     evaluator's witness, Accepted and Tried; this rests on every Ratio
//     being a pure function of the sequence.
//
// Adversarial sequences are bursts separated by draining gaps — the shape
// the simulator's event-driven fast path collapses — so Search and
// AdaptiveAntiGreedy both ride it: Search's candidate evaluations run on
// whatever engine the caller's Config selects (event-driven by default),
// and AdaptiveAntiGreedy advances each phase's drain-and-catch-up stretch
// through the stepper's quiescent StepIdle jump.
package adversary
