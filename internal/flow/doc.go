// Package flow implements a min-cost max-flow solver: successive shortest
// augmenting paths with Johnson potentials, on integer capacities and
// costs, so the optimum is exact. It is a test-only reference oracle that
// no production package imports (TestFlowIsTestOnly): internal/iq's tests
// solve the input-queued optimum as one flow to check iq.ExactOPT's greedy,
// and internal/offline's tests build the flow references for its judges.
//
// The engine is a solver object in the style of matching.HKMatcher and
// matching.HungarianSolver: the zero value is ready to use, Reset rewinds
// the graph while keeping every internal array, and the solve scratch
// (potentials, distances, the Dijkstra heap) survives across solves. A
// caller that rebuilds and solves a similarly-sized graph per sequence
// therefore allocates nothing in steady state; NewMCMF remains as a
// one-shot constructor for callers that build a single graph.
package flow
