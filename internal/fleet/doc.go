// Package fleet batch-simulates fleets of independent small switches.
//
// The competitive-ratio harness (internal/ratio) and the adversary
// restarts validate the paper's claims by Monte-Carlo estimation: many
// seeded runs of *small* switches under the same configuration and policy
// family. Throughput there is governed by aggregate switch-slot updates
// per second across the fleet, not by single-switch latency — exactly the
// regime a batched engine wins.
//
// # Columnar layout
//
// A fleet holds B instances of one geometry in struct-of-arrays form:
// every piece of per-switch state becomes a flat lane indexed by
// instance. Occupancy masks are uint64 words (voq[k*n+i] is instance k's
// non-empty-VOQ mask for input i), queue contents are flat power-of-two
// rings of (value, arrival) pairs — plus a parallel ID lane in the
// weighted family, where rings are kept in ByValue order and admissions
// and transfers may preempt the ring minimum — and the per-slot metric
// accumulators (sent, benefit, occupancy integrals, ...) are []int64
// lanes. The per-slot loop therefore touches dense arrays with no pointer
// chasing, no interface dispatch per queue operation, and no allocation —
// the zero-allocs-per-batched-slot invariant is pinned by alloc_test.go
// for the unit, weighted and wide engines alike.
//
// Two engine widths share this design. The narrow engines (Inputs,
// Outputs ≤ 64) keep every occupancy row in a single word and serve every
// ported policy family. The wide engine is weighted CIOQ PG at
// 65 ≤ ports ≤ 512: it stores each row as a multi-word internal/bitset
// span, iterates it word by word, and enumerates its eligible edges in
// (input, output) order for matching.WeightedScheduler's counting-sort
// path, one scheduler shared across the batch. Everything else above 64
// ports falls back to scalar runs. The runner picks the engine per
// configuration.
//
// All three engines embed one lockstep core (lockstep.go): the batch
// bookkeeping, Step's window loop, retirement into switchsim.Metrics, and
// Results. Each engine supplies only its columns, its Reset of them, and
// runWindow — the per-slot body of admissions, kernel cycles,
// transmission and quiescent drain over its own layout.
//
// # Lockstep windows and the active list
//
// All live instances advance through the same global slot clock in
// bounded windows: each Step visits every instance on the dense active
// list once and simulates its share of the window slot by slot —
// admissions from the instance's own arrival sequence, Speedup scheduling
// cycles of the batched policy kernel, transmission, and the end-of-slot
// occupancy sample — so an instance's working set is pulled into cache
// once per window instead of once per slot. An instance whose input side
// empties is quiescent — its remaining backlog drains
// policy-independently — so its drain is accumulated in closed form
// (mirroring the scalar engines' quiesce), and if the stretch crosses the
// window boundary it leaves the active list via a swap-remove and sleeps
// on a wake heap until its next arrival, rejoining the dense set then.
// When every instance sleeps the clock jumps straight to the earliest
// wake slot. Instances retire as they reach their own horizon; Step
// returns false once the fleet drains. Results are independent of the
// window length — instances never read each other's state.
//
// # Kernels and bit-identical semantics
//
// A kernel is the batched counterpart of a scalar policy. Two families
// are ported. The unit family is the policies whose admission rule is
// "accept iff the input queue has room" and whose quiescent-state
// evolution is either frozen (RoundRobin pointers, NaiveFIFO) or
// derivable from the slot clock (GM and CGU rotating-scan ticks). The
// weighted family adds the preemptive disciplines: ByValue rings,
// preempt-the-minimum admission, preemptive transfers and weighted
// matchings (greedy for PG/CPG, Hungarian for KRMWM), whose quiescent
// drains are value-ordered but still policy-independent.
//
// Coverage matrix (policy × geometry; ✓ is a batched kernel, — the
// scalar fallback):
//
//	policy                     CIOQ ≤ 64   CIOQ 65–512   crossbar ≤ 64
//	GM (all four edge orders)     ✓            —              —
//	RoundRobin, NaiveFIFO         ✓            —              —
//	PG (incl. custom beta)        ✓            ✓              —
//	KRMWM (maximum-weight)        ✓            —              —
//	CGU (plain and rotating)      —            —              ✓
//	CPG (incl. custom α/β)        —            —              ✓
//
// Every kernel reproduces its scalar policy's decisions exactly —
// eligibility is read from the same pre-cycle state the scalar engine
// exposes to policies — so fleet Metrics are reflect.DeepEqual to
// per-instance switchsim runs, including latency histograms and per-slot
// series. The differential suite, a fuzz target over batch size, weighted
// tie-breaks, wide geometries and sequence shape, and the ratio-backend
// determinism tests gate this the same way reference_test.go and
// eventdriven_test.go gated PR 1–3.
//
// Policies without a kernel (randomized GM, the FIFO-discipline
// variants, ...), every family but PG above 64 ports, and every geometry
// beyond 512 ports fall back to per-instance scalar runs behind the same
// CIOQRunner/CrossbarRunner entry points, so callers need not
// special-case batchability.
package fleet
