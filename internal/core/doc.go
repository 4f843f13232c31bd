// Package core implements the paper's four online scheduling algorithms —
// GM and PG for CIOQ switches, CGU and CPG for buffered crossbar switches —
// together with the baseline policies they are compared against: the
// maximum-matching schedulers of prior work (Kesselman–Rosén style), the
// β=α parameterization of CPG (Kesselman et al.), FIFO-queue baselines in
// the Azar–Richter and Kesselman–Kogan–Segal lines, a naive non-preemptive
// first-fit policy, an iSLIP-like round-robin matcher, and a randomized GM
// variant probing the paper's open problem. registry.go names each of
// them once, in the policy table every caller resolves spec strings
// through.
//
// # Invariants
//
// Every policy here honors the engine contracts in internal/switchsim:
//
//   - Schedule / InputSubphase / OutputSubphase return a matching (at
//     most one transfer per input and per output port) drawn only from
//     occupied source queues; the returned slice is reusable scratch the
//     engine consumes before the next policy call.
//   - Eligibility is enumerated from the switch's bitset occupancy index,
//     never by scanning all Inputs×Outputs queues, so per-cycle cost is
//     proportional to occupancy and the steady-state path performs zero
//     allocations (asserted in alloc_test.go).
//   - Every policy implements switchsim.IdleAdvancer: IdleAdvance(k)
//     reproduces exactly the state k no-transfer slots would leave —
//     free-running tick counters (GM's Rotating order, CGU's RotatePick)
//     advance in closed form, everything else is a documented no-op.
//     This is what lets the engines jump idle and quiescent stretches for
//     all shipped policies.
//
// Conformance is enforced three ways: reference_test.go pins each policy
// bit-for-bit to a retained full-scan implementation, eventdriven_test.go
// pins the fast path bit-for-bit to dense runs over sparse and
// backlogged-but-quiescent workloads (plus a fuzz target), and
// alloc_test.go pins the allocation-free hot path.
package core
