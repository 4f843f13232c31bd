// Package flow implements the min-cost max-flow solver behind the exact
// input-queued optimum of internal/iq: successive shortest augmenting
// paths with Johnson potentials, on integer capacities and costs, so the
// optimum is exact. (internal/offline's flow references for its judges
// live in that package's tests and share this solver.)
//
// The engine is a solver object in the style of matching.HKMatcher and
// matching.HungarianSolver: the zero value is ready to use, Reset rewinds
// the graph while keeping every internal array, and the solve scratch
// (potentials, distances, the Dijkstra heap) survives across solves. A
// caller that rebuilds and solves a similarly-sized graph per sequence
// therefore allocates nothing in steady state; NewMCMF remains as a
// one-shot constructor for callers that build a single graph.
package flow
