// Package bitset provides the fixed-width bitmasks that back the
// simulator's occupancy index. A Mask is a set over [0, n) stored as
// packed uint64 words; the switch engines maintain one mask per port
// (non-empty virtual output queues, non-full output queues, occupied
// crosspoints) and update single bits in O(1) on every push, pop and
// preemption. Schedulers then enumerate eligible (input, output) pairs
// with bits.TrailingZeros64 over word-wise ANDs of these masks, making
// the per-cycle cost proportional to the number of *occupied* queues
// instead of the full port-count product. A Matrix is a row-contiguous
// block of equal-width masks, giving the engines one allocation for a
// whole per-port family.
//
// # Invariants
//
//   - Bits at positions >= n are always zero: every operation (including
//     Fill, which cleans the trailing partial word) preserves this, so
//     word-wise iteration never reports phantom members and
//     First/Last/FirstAnd need no edge handling.
//   - A mask's width is fixed at New; Set/Clear/Test outside [0, n) fail
//     via the natural slice bounds check rather than silently growing.
//   - Masks of equal width may be combined word-wise (Copy, FirstAnd,
//     FirstAndFrom); callers must not mix widths.
//
// The rotated searches (FirstFrom, FirstAndFrom) implement the
// wrap-around find-first-set that rotating-scan schedulers (GM's Rotating
// order, CGU's RotatePick) use to desynchronize service across ports
// without materializing a rotated copy.
package bitset
