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
// instance. Occupancy masks are rows of uint64 words (CIOQ's
// voq[(k*n+i)*wm:] is instance k's non-empty-VOQ row for input i, wm
// words long), queue contents are flat power-of-two
// rings of (value, arrival) pairs — plus a parallel ID lane in the
// weighted family, where rings are kept in ByValue order and admissions
// and transfers may preempt the ring minimum — and the per-slot metric
// accumulators (sent, benefit, occupancy integrals, ...) are []int64
// lanes. The per-slot loop therefore touches dense arrays with no pointer
// chasing, no interface dispatch per queue operation, and no allocation —
// the zero-allocs-per-batched-slot invariant is pinned by alloc_test.go
// for the unit and weighted kernels, on one-word and multi-word rows.
//
// Occupancy rows are as wide as the geometry needs. The CIOQ engine
// stores each output-indexed row (voq, and the per-instance outFree and
// outBusy) as bitset.Words(Outputs) words: one word up to 64 outputs,
// where every ported family runs, and up to eight for PG at 512 ports,
// the one kernel past 64 ports. The unit kernels and PG's walk of its
// per-instance switchsim.HeadIndex read one-word rows directly; the slot
// body and PG's multi-word edge scan walk the rows word by word,
// enumerating eligible edges in (input, output) order for
// matching.WeightedScheduler's counting-sort path. The crossbar engine keeps one word per row and serves up to 64
// ports. Everything else above 64 ports falls back to scalar runs.
//
// Both engines embed one lockstep core (lockstep.go): the batch
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
// A kernel is the batched counterpart of a scalar policy, and only the
// paper's four algorithms have one. Two families are ported. The unit
// family is GM (row-major) and CGU (plain): admission is "accept iff the
// input queue has room", and each cycle reads nothing but the occupancy
// words. The weighted family adds the preemptive disciplines: ByValue
// rings, preempt-the-minimum admission, preemptive transfers and weighted
// greedy matchings (PG, CPG), whose quiescent drains are value-ordered
// but still policy-independent. No kernel keeps state that depends on the
// slot, so quiescent jumps need no per-policy hook.
//
// Coverage matrix (policy × geometry; ✓ is a batched kernel, — the
// scalar fallback):
//
//	policy                     CIOQ ≤ 64   CIOQ 65–512   crossbar ≤ 64
//	GM (row-major)                ✓            —              —
//	PG (incl. custom beta)        ✓            ✓              —
//	CGU (plain)                   —            —              ✓
//	CPG (incl. custom α/β)        —            —              ✓
//
// Every kernel reproduces its scalar policy's decisions exactly —
// eligibility is read from the same pre-cycle state the scalar engine
// exposes to policies — so fleet Metrics are reflect.DeepEqual to
// per-instance switchsim runs, including latency histograms and per-slot
// series. The differential suite, a fuzz target over batch size, weighted
// tie-breaks, multi-word geometries and sequence shape, and the ratio-backend
// determinism tests gate this the same way reference_test.go and
// eventdriven_test.go gated PR 1–3.
//
// Policies without a kernel (GM's other edge orders, rotating CGU,
// RoundRobin, NaiveFIFO, randomized GM, the maximum-matching baselines
// KRMM and KRMWM, the FIFO-discipline variants, ...), every
// family but PG above 64 ports, and every geometry beyond 512 ports fall
// back to per-instance scalar runs behind the same CIOQRunner/
// CrossbarRunner entry points, so callers need not special-case
// batchability.
//
// # Sequence runs
//
// The package's init registers a batch-of-one runner per model with
// switchsim (switchsim.RegisterKernels): in any binary that links it,
// switchsim.RunCIOQ and RunCrossbar run a sequence on a fresh fleet of one
// when BatchableCIOQ or BatchableCrossbar accepts it, with the Result,
// engine-probe tallies and malformed-sequence errors the slot loop would
// give. Kernels are matched on
// concrete policy types, so a struct embedding the policy forces the slot
// loop: the differential tests' oracle.
package fleet
