// Package matching provides the bipartite matching engines that drive the
// scheduling phase of the simulated switches.
//
// The paper's central efficiency claim is that *greedy maximal* matchings
// (constructed by scanning edges once) achieve the same competitive ratios
// as the *maximum* matchings used in prior work while being far cheaper to
// compute. This package implements both families so the claim can be
// benchmarked head-to-head:
//
//   - GreedyMaximal / WeightedScheduler.GreedyMaximalWeighted — the
//     paper's engines,
//   - HopcroftKarp — maximum-cardinality matching (Kesselman–Rosén style),
//   - Hungarian — maximum-weight matching (for the 6-competitive baseline).
//
// The tests hold these engines to independent oracles kept in
// oracle_test.go: Kuhn's augmenting-path maximum matching, exhaustive
// brute-force maxima, and matching/maximality checkers.
//
// The scheduling policies in internal/core no longer hand this package a
// full Inputs×Outputs edge scan: they enumerate candidate edges from the
// switch's bitset occupancy index (see internal/switchsim and
// internal/bitset), so the edge lists arriving here are proportional to
// the number of occupied queues. On the engine side, Matcher,
// WeightedScheduler, HKMatcher and HungarianSolver are the reusable
// (scratch-carrying, zero-allocation after warm-up) counterparts of the
// one-shot functions, which remain for tests and offline callers.
//
// # Invariants
//
//   - Every engine returns a valid matching: at most one edge per left
//     and per right vertex, drawn from the supplied edge list.
//   - Engines are deterministic: ties break by the caller's edge order
//     (greedy) or by fixed internal order (exact engines), so simulations
//     are reproducible bit for bit.
//   - Reusable engines retain only scratch between calls — results never
//     alias earlier returns once the next call begins, matching the
//     simulator's consume-before-next-call contract.
package matching
