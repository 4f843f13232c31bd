package bitset

import (
	"math/rand"
	"testing"
)

// reference is a plain boolean-slice model of the same set.
type reference []bool

func (r reference) first() int {
	for i, v := range r {
		if v {
			return i
		}
	}
	return -1
}

func (r reference) last() int {
	for i := len(r) - 1; i >= 0; i-- {
		if r[i] {
			return i
		}
	}
	return -1
}

func (r reference) firstFrom(start int) int {
	n := len(r)
	for d := 0; d < n; d++ {
		if i := (start + d) % n; r[i] {
			return i
		}
	}
	return -1
}

func (r reference) and(b reference) reference {
	out := make(reference, len(r))
	for i := range r {
		out[i] = r[i] && b[i]
	}
	return out
}

func TestMaskBasics(t *testing.T) {
	for _, n := range []int{1, 7, 63, 64, 65, 128, 200} {
		m := New(n)
		if !m.Empty() || m.Count() != 0 || m.First() != -1 || m.Last() != -1 {
			t.Fatalf("n=%d: new mask not empty", n)
		}
		m.Fill(n)
		if m.Count() != n {
			t.Fatalf("n=%d: Fill set %d bits", n, m.Count())
		}
		for i := 0; i < n; i++ {
			if !m.Test(i) {
				t.Fatalf("n=%d: bit %d unset after Fill", n, i)
			}
		}
		m.Zero()
		if !m.Empty() {
			t.Fatalf("n=%d: Zero left bits set", n)
		}
		m.Set(n - 1)
		if m.First() != n-1 || m.Last() != n-1 || m.Count() != 1 {
			t.Fatalf("n=%d: Set(n-1) misbehaved", n)
		}
		m.SetTo(n-1, false)
		if !m.Empty() {
			t.Fatalf("n=%d: SetTo false left bit", n)
		}
	}
}

// TestMaskVsReference drives random operations against the boolean model
// and checks every query, with widths straddling word boundaries.
func TestMaskVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 5, 63, 64, 65, 127, 130, 256} {
		m, b := New(n), New(n)
		rm, rb := make(reference, n), make(reference, n)
		for step := 0; step < 2000; step++ {
			i := rng.Intn(n)
			switch rng.Intn(4) {
			case 0:
				m.Set(i)
				rm[i] = true
			case 1:
				m.Clear(i)
				rm[i] = false
			case 2:
				b.Set(i)
				rb[i] = true
			case 3:
				b.Clear(i)
				rb[i] = false
			}
			if got, want := m.Test(i), rm[i]; got != want {
				t.Fatalf("n=%d step %d: Test(%d)=%v want %v", n, step, i, got, want)
			}
			if got, want := m.First(), rm.first(); got != want {
				t.Fatalf("n=%d step %d: First=%d want %d", n, step, got, want)
			}
			if got, want := m.Last(), rm.last(); got != want {
				t.Fatalf("n=%d step %d: Last=%d want %d", n, step, got, want)
			}
			if got, want := m.FirstAnd(b), rm.and(rb).first(); got != want {
				t.Fatalf("n=%d step %d: FirstAnd=%d want %d", n, step, got, want)
			}
			start := rng.Intn(n)
			if got, want := m.FirstFrom(start), rm.firstFrom(start); got != want {
				t.Fatalf("n=%d step %d: FirstFrom(%d)=%d want %d", n, step, start, got, want)
			}
			if got, want := m.FirstAndFrom(b, start), rm.and(rb).firstFrom(start); got != want {
				t.Fatalf("n=%d step %d: FirstAndFrom(%d)=%d want %d", n, step, start, got, want)
			}
			if got, want := m.Count(), countRef(rm); got != want {
				t.Fatalf("n=%d step %d: Count=%d want %d", n, step, got, want)
			}
		}
	}
}

func countRef(r reference) int {
	c := 0
	for _, v := range r {
		if v {
			c++
		}
	}
	return c
}

func TestMatrix(t *testing.T) {
	mx := NewMatrix(3, 70)
	mx.Row(0).Set(69)
	mx.Row(2).Set(0)
	if mx.Row(1).Count() != 0 {
		t.Fatal("row 1 polluted by neighbors")
	}
	if mx.Row(0).First() != 69 || mx.Row(2).First() != 0 {
		t.Fatal("row contents wrong")
	}
	if mx.Rows() != 3 {
		t.Fatalf("Rows=%d", mx.Rows())
	}
	mx.Zero()
	for r := 0; r < 3; r++ {
		if !mx.Row(r).Empty() {
			t.Fatalf("row %d not cleared", r)
		}
	}
}

func TestFillKeepsTrailingWordClean(t *testing.T) {
	m := New(70)
	m.Fill(70)
	// Bits >= 70 must stay zero so word-wise scans never report
	// phantom elements.
	if m[1]>>uint(70-64) != 0 {
		t.Fatalf("trailing word dirty: %x", m[1])
	}
}
