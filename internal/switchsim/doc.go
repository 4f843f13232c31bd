// Package switchsim implements slot- and phase-accurate simulators for the
// three switch architectures the paper discusses:
//
//   - CIOQ switches (input virtual-output queues + output queues),
//   - buffered crossbar switches (additional per-crosspoint queues), and
//   - an ideal output-queued (OQ) switch used as a reference point.
//
// Each time slot consists of an arrival phase, ŝ scheduling cycles
// (ŝ = speedup; each cycle transfers a *matching* of packets), and a
// transmission phase that sends at most one packet per output port.
// Scheduling decisions are delegated to policies (package internal/core);
// the engine owns the queues, enforces the physical constraints (matching
// property, buffer capacities, phase ordering) and collects metrics, so a
// buggy policy produces an error instead of silently cheating.
//
// # The occupancy index
//
// Every switch maintains bitmask summaries of its queue state (package
// internal/bitset) that the engine updates in O(1) at each push, pop and
// preemption: per-input masks of non-empty virtual output queues (and
// their transpose), masks of non-full and non-empty output queues, and —
// on the buffered crossbar — per-input masks of non-full crosspoint
// queues plus per-output masks of occupied crosspoints. Policies derive
// their eligibility graphs from word-wise ANDs of these masks (e.g.
// VOQ.Row(i) & OutFree enumerates GM's edges for input i), so a
// scheduling cycle costs time proportional to the number of occupied
// queues rather than Inputs×Outputs, and the transmission phase visits
// only non-empty outputs. In validation mode the engine re-derives the
// index from the queues each slot and fails loudly on any divergence.
//
// Value-ordered queue grids also keep their head values: a flat lane per
// grid (IQHead; the crossbar's XHead, transposed by output) and, for up
// to 64×64 ports, a HeadIndex that files each queue under its head value
// in [1, MaxIndexedValue], so a weighted policy can walk the head values
// in descending order instead of reading every queue. FIFO grids keep
// neither.
//
// The engine never retains a policy's []Transfer slice across calls, so
// policies return reusable scratch buffers; together with the
// epoch-stamped matching-validation marks this keeps the steady-state
// scheduling path allocation-free.
//
// # Event-driven simulation and the quiescent fast path
//
// By default the engines exploit the occupancy index's global counters to
// skip slots whose outcome is already determined; Config.Dense opts out
// and simulates every slot. Two shapes are recognized, both detected in
// O(1) from the incrementally-maintained packet counters:
//
//   - Empty: the switch holds no packets at the end of a slot. The
//     remaining slots until the next arrival (arrivals come in order, so
//     the lookup is O(1)) are skipped in a single jump.
//
//   - Quiescent: the switch still holds a backlog, but no scheduling
//     decision can move a packet — on a CIOQ switch all input-side
//     virtual output queues are empty, on a buffered crossbar the
//     crosspoint queues are empty as well. (These are the only
//     *persistent* no-eligible-edge states: a non-empty VOQ blocked on a
//     full output or crosspoint unblocks within one slot, because every
//     non-empty output transmits — and therefore un-fills — each slot.)
//     What remains is pure drain dynamics: each non-empty output queue
//     transmits one head packet per slot, independent of the policy. The
//     engine advances that drain in closed form — popping each departing
//     packet once and accumulating transmission, latency, series and
//     occupancy-integral metrics arithmetically — and jumps to the next
//     arrival without invoking the scheduler at all.
//
// Slot-dependent policy state is advanced across either jump through the
// IdleAdvancer hook; policies that do not implement it are simulated
// densely, so results are bit-identical to a dense run either way — the
// differential and fuzz suites in internal/core assert this for every
// shipped policy on both idle-heavy and backlogged-but-quiescent
// workloads. Sparse and bursty traces (the natural shape of adversarial
// sequences, whose lower-bound constructions alternate bursts with long
// draining gaps) simulate orders of magnitude faster this way.
//
// # One loop, three front ends
//
// Each architecture has a single slot loop (cioqEngine, crossbarEngine):
// a shared set-up, a per-slot body — scheduling cycles, transmission,
// occupancy sample, Validate check — and a quiescent-jump helper. What
// varies is only where a slot's arrivals come from:
//
//   - RunCIOQ and RunCrossbar take a materialized packet.Sequence. It is
//     validated up front (so a malformed packet anywhere fails the run
//     before the policy is consulted) and then read in place by index.
//
//   - RunCIOQStream and RunCrossbarStream take a packet.ArrivalStream.
//     The cursor pulls exactly one packet ahead, checks each pulled packet
//     with the same packet.Validator that Sequence.Validate loops over —
//     so the error texts are one set — and answers the jumps' "when is the
//     next arrival?" from that look-ahead. Memory is bounded by the
//     producer's window plus switch state, independent of the horizon, and
//     with a Slots cap nothing beyond the horizon is ever pulled. With
//     Slots == 0 the horizon is last arrival + 1 + packet count, known
//     when the stream ends. RecordSeries is the one O(slots) metric; for
//     unbounded runs leave it off.
//
//   - CIOQStepper and CrossbarStepper are handed each slot's arrivals by
//     their caller (StepSlot), which is what lets an adaptive adversary
//     choose them after looking at the switch; StepIdle and Finish take
//     the same quiescent jumps.
//
// All three produce deeply equal Metrics for the same arrivals, asserted
// by the front-end tables, the fuzz target and the allocation pins in
// internal/core. With Config.StreamMetrics set, latency quantiles come
// from a constant-space P² sketch (package internal/stats) instead of the
// per-packet histogram; every front end honors the flag identically, as
// does the OQ engine, so sketch-mode runs stay comparable.
package switchsim
