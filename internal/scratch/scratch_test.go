package scratch

import "testing"

// TestGrow checks Grow's contract: the requested length always, the same
// backing array whenever the capacity fits, a new one only when it is
// short.
func TestGrow(t *testing.T) {
	for _, tc := range []struct {
		name      string
		len, cap  int
		n         int
		wantReuse bool
	}{
		{"nil to zero", 0, 0, 0, true},
		{"zero from full", 3, 8, 0, true},
		{"shrink", 6, 8, 2, true},
		{"grow within capacity", 2, 8, 8, true},
		{"same length", 5, 5, 5, true},
		{"one short", 4, 4, 5, false},
		{"from nil", 0, 0, 3, false},
	} {
		var s []int
		if tc.cap > 0 {
			s = make([]int, tc.len, tc.cap)
		}
		got := Grow(s, tc.n)
		if len(got) != tc.n {
			t.Errorf("%s: len %d, want %d", tc.name, len(got), tc.n)
		}
		if cap(got) < tc.n {
			t.Errorf("%s: cap %d below the requested %d", tc.name, cap(got), tc.n)
		}
		if reused := sameArray(got, s); reused != tc.wantReuse {
			t.Errorf("%s: kept the backing array = %v, want %v", tc.name, reused, tc.wantReuse)
		}
	}
}

// sameArray reports whether a and b share one backing array (or are both
// without one).
func sameArray(a, b []int) bool {
	return cap(a) == cap(b) && (cap(a) == 0 || &a[:cap(a)][0] == &b[:cap(b)][0])
}
