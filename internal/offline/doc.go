// Package offline computes offline optima and upper bounds used to measure
// empirical competitive ratios.
//
// Three tiers are provided, trading instance size for tightness:
//
//   - ExactUnitCIOQ / ExactUnitCrossbar: exact OPT for unit-value
//     instances via dynamic programming over queue-length states. With
//     unit values, packets in a queue are interchangeable, so queue
//     lengths are a sufficient state; the paper's WLOG assumptions (OPT is
//     greedy and work-conserving at outputs, never benefits from
//     discarding a unit packet it could keep) shrink the action space to
//     the per-cycle choice of matching.
//
//   - ExactWeightedCIOQ / ExactWeightedCrossbar: exact OPT for *micro*
//     weighted instances via memoized search over value-multiset states,
//     using the paper's exchange arguments (A1–A3: transfer/send maxima,
//     preempt minima) to keep branching on admissions and matchings only.
//
//   - OQUpperBound / CombinedUpperBound: polynomial upper bounds for
//     arbitrary instances. Each relaxes the fabric to a family of
//     independent bounded-buffer single queues (one per output, and for
//     CombinedUpperBound also one per input drained at the fabric rate);
//     any feasible CIOQ/crossbar schedule maps to a feasible schedule of
//     the relaxation, so its optimum upper-bounds OPT. The input side
//     alone (InputUpperBound) and one relaxed queue alone
//     (SingleQueueOPT) are test references in the package's tests.
//
// The single-queue relaxations are solved by one forward sweep over the
// sequence (sweepQueue): a relaxed queue has no FIFO constraint, so keeping
// the bufCap most valuable packets and sending the most valuable first is
// exact, a packet costs O(log bufCap) — O(1) when values are equal — and an
// empty stretch costs O(1), so judging a sparse million-slot trace costs
// what judging its packets costs. UpperBoundSolver fuses validation and
// both sides' queues into that one pass and keeps the per-port heaps, so a
// reused judge allocates nothing in steady state. Two earlier formulations
// live in reference_test.go as the oracles of the differential suite,
// FuzzSingleQueueOPT and FuzzCombinedUpperBound, pinned exact-equal:
// min-cost flow on the time-expanded line graph, two nodes per slot
// (SingleQueueOPTFlow / CombinedUpperBoundFlow over internal/testkit/flow), and
// the value-ordered greedy on the compressed arrival-epoch axis with two
// lazy segment trees (refQueueOPTSolver). The production package does not
// depend on internal/testkit/flow.
//
// The exact solvers keep a whole switch state in one machine word (queue
// lengths as bit fields; for weighted instances, which queue holds each
// packet), memoise in a reusable open-addressed table and stop a state's
// enumeration once its best child meets the trivial per-output ceiling —
// an exact cut (see unitDP, WeightedSolver). The byte-slice, string-memo
// solvers they replaced live on in reference_test.go, pinned exact-equal
// by the differential suite and FuzzExactEquivalence.
package offline
