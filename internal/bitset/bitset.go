package bitset

import "math/bits"

// Mask is a bitset over [0, n) where n was fixed at New. The zero value
// is an empty set of width 0.
type Mask []uint64

// Words returns the number of uint64 words needed for n bits.
func Words(n int) int { return (n + 63) >> 6 }

// New returns an empty mask of width n.
func New(n int) Mask { return make(Mask, Words(n)) }

// Set adds i to the set.
func (m Mask) Set(i int) { m[i>>6] |= 1 << uint(i&63) }

// Clear removes i from the set.
func (m Mask) Clear(i int) { m[i>>6] &^= 1 << uint(i&63) }

// Test reports whether i is in the set.
func (m Mask) Test(i int) bool { return m[i>>6]&(1<<uint(i&63)) != 0 }

// Fill sets every bit in [0, n). n must match the width the mask was
// created with (the trailing partial word stays clean).
func (m Mask) Fill(n int) {
	for k := range m {
		m[k] = ^uint64(0)
	}
	if r := n & 63; r != 0 {
		m[len(m)-1] = 1<<uint(r) - 1
	}
}

// Copy overwrites m with src. The masks must have equal width.
func (m Mask) Copy(src Mask) { copy(m, src) }

// First returns the smallest element, or -1 if the set is empty.
func (m Mask) First() int {
	for k, w := range m {
		if w != 0 {
			return k<<6 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// Last returns the largest element, or -1 if the set is empty.
func (m Mask) Last() int {
	for k := len(m) - 1; k >= 0; k-- {
		if w := m[k]; w != 0 {
			return k<<6 + 63 - bits.LeadingZeros64(w)
		}
	}
	return -1
}

// FirstAnd returns the smallest element of m ∩ b, or -1 if the
// intersection is empty. The masks must have equal width.
func (m Mask) FirstAnd(b Mask) int {
	for k, w := range m {
		if w &= b[k]; w != 0 {
			return k<<6 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// FirstFrom returns the smallest element in rotated order starting at
// start: the smallest element >= start if one exists, otherwise the
// smallest element overall; -1 if the set is empty. start must be in
// [0, width).
func (m Mask) FirstFrom(start int) int {
	sw, sb := start>>6, uint(start&63)
	if w := m[sw] &^ (1<<sb - 1); w != 0 {
		return sw<<6 + bits.TrailingZeros64(w)
	}
	for k := sw + 1; k < len(m); k++ {
		if w := m[k]; w != 0 {
			return k<<6 + bits.TrailingZeros64(w)
		}
	}
	for k := 0; k < sw; k++ {
		if w := m[k]; w != 0 {
			return k<<6 + bits.TrailingZeros64(w)
		}
	}
	if w := m[sw] & (1<<sb - 1); w != 0 {
		return sw<<6 + bits.TrailingZeros64(w)
	}
	return -1
}

// FirstAndFrom is FirstFrom over m ∩ b without materializing the
// intersection. The masks must have equal width; start in [0, width).
func (m Mask) FirstAndFrom(b Mask, start int) int {
	sw, sb := start>>6, uint(start&63)
	if w := m[sw] & b[sw] &^ (1<<sb - 1); w != 0 {
		return sw<<6 + bits.TrailingZeros64(w)
	}
	for k := sw + 1; k < len(m); k++ {
		if w := m[k] & b[k]; w != 0 {
			return k<<6 + bits.TrailingZeros64(w)
		}
	}
	for k := 0; k < sw; k++ {
		if w := m[k] & b[k]; w != 0 {
			return k<<6 + bits.TrailingZeros64(w)
		}
	}
	if w := m[sw] & b[sw] & (1<<sb - 1); w != 0 {
		return sw<<6 + bits.TrailingZeros64(w)
	}
	return -1
}

// Matrix is a stack of equal-width masks, one per row, used for the
// per-port occupancy index (row = input port, columns = output ports, or
// the transpose).
type Matrix struct {
	rows  []Mask
	words int
}

// NewMatrix returns a rows × width matrix of empty masks backed by one
// contiguous allocation.
func NewMatrix(rows, width int) Matrix {
	w := Words(width)
	backing := make(Mask, rows*w)
	ms := make([]Mask, rows)
	for r := range ms {
		ms[r] = backing[r*w : (r+1)*w : (r+1)*w]
	}
	return Matrix{rows: ms, words: w}
}

// Row returns the mask of row r (shared storage, not a copy).
func (mx Matrix) Row(r int) Mask { return mx.rows[r] }
