package switchsim

import (
	"fmt"
	"math/bits"
)

// MaxIndexedValue is the largest head value a HeadIndex files under its
// value. It is the weight cap of package matching's counting-sort path; a
// head above it (or below 1) is only counted, and while any such head is
// queued the index is not Ready.
const MaxIndexedValue = 2048

// maxIndexedPorts bounds both sides of an indexed grid, so that a row of
// the grid and the set of rows each fit one machine word.
const maxIndexedPorts = 64

// HeadIndex files the queues of one value-ordered queue grid under the
// value of their head packet. Its owner (the slot loop's CIOQ, or one
// instance of the columnar fleet) keeps it exact at every push, pop and
// preemption through Move, in O(1) per change; policies treat it as
// read-only.
//
// A grid is indexed by rows and columns of at most 64 each: for each head
// value v in [1, MaxIndexedValue] it keeps a column mask per row (the
// queues of that row whose head is worth v), a mask of the rows with a
// non-empty column mask, and a presence bit, so the present values can be
// walked in descending order at a word scan per 64 values. Value buckets
// are allocated lazily, as far as the largest value seen: a larger value
// at least doubles them.
type HeadIndex struct {
	rows int // 0: the grid is not indexed
	vcap int // values 1..vcap have buckets; a multiple of 16
	over int // heads outside [1, MaxIndexedValue]
	live uint64

	// One allocation backs the four slices.
	count   []uint64 // count[r]: indexed heads in row r
	present []uint64 // bit v-1: some row has a head worth v
	byVal   []uint64 // byVal[v-1]: rows with a head worth v
	cols    []uint64 // cols[(v-1)*rows+r]: columns of row r whose head is worth v
}

// Ready reports whether the grid is indexed and every queued head is
// filed, so the index alone answers for the whole grid.
func (x *HeadIndex) Ready() bool { return x.rows > 0 && x.over == 0 }

// Greedy appends PG's greedy maximal matching over the filed heads to dst,
// each transfer with PreemptIfFull set: head values descending; within a
// value, the unmatched rows (inputs) ascending, each taking its lowest
// unmatched column (output) of the first cols that is open or admits(c, v).
// A column that admits refuses at v is dropped for the rest of the walk,
// since it would refuse every lower value too. On a Ready index that is
// matching.WeightedScheduler's (weight desc, input asc, output asc) pick
// from the eligible edges, in the same order.
func (x *HeadIndex) Greedy(dst []Transfer, cols int, open uint64, admits func(c int, v int64) bool) []Transfer {
	in := x.live
	avail := ^uint64(0) >> uint(64-cols)
	for w := len(x.present) - 1; w >= 0; w-- {
		for word := x.present[w]; word != 0; {
			if in == 0 || avail == 0 {
				return dst
			}
			b := 63 - bits.LeadingZeros64(word)
			word &^= 1 << uint(b)
			k := w<<6 | b
			v := int64(k + 1)
			for rows := x.byVal[k] & in; rows != 0; rows &= rows - 1 {
				r := bits.TrailingZeros64(rows)
				for cand := x.cols[k*x.rows+r] & avail; cand != 0; cand &= cand - 1 {
					c := bits.TrailingZeros64(cand)
					if open&(1<<uint(c)) == 0 && !admits(c, v) {
						avail &^= 1 << uint(c)
						continue
					}
					dst = append(dst, Transfer{In: r, Out: c, PreemptIfFull: true})
					in &^= 1 << uint(r)
					avail &^= 1 << uint(c)
					break
				}
			}
		}
	}
	return dst
}

// Reset empties the index and prepares it for a grid of `rows` rows. An
// index already laid out for that many rows keeps its value buckets and
// clears only the values still filed; otherwise nothing is allocated until
// a head is filed.
func (x *HeadIndex) Reset(rows int) {
	if rows != x.rows {
		*x = HeadIndex{rows: rows}
		return
	}
	for w, word := range x.present {
		for ; word != 0; word &= word - 1 {
			k := w<<6 | bits.TrailingZeros64(word)
			clear(x.cols[k*rows : (k+1)*rows])
			x.byVal[k] = 0
		}
	}
	clear(x.present)
	clear(x.count)
	x.over, x.live = 0, 0
}

// resize re-lays the buffer for values 1..vcap, keeping what is filed.
func (x *HeadIndex) resize(vcap int) {
	r, pw := x.rows, (vcap+63)>>6
	buf := make([]uint64, r+pw+vcap+vcap*r)
	count, rest := buf[:r:r], buf[r:]
	present, rest := rest[:pw:pw], rest[pw:]
	byVal, cols := rest[:vcap:vcap], rest[vcap:]
	copy(count, x.count)
	copy(present, x.present)
	copy(byVal, x.byVal)
	copy(cols, x.cols)
	x.vcap = vcap
	x.count, x.present, x.byVal, x.cols = count, present, byVal, cols
}

// Move refiles the queue at (r, c) from head value old to head value now;
// 0 stands for an empty queue. It is a no-op on a grid that is not indexed.
func (x *HeadIndex) Move(r, c int, old, now int64) {
	if x.rows == 0 {
		return
	}
	// uint64(v-1) < MaxIndexedValue is 1 <= v <= MaxIndexedValue.
	filedOld, filedNow := uint64(old-1) < MaxIndexedValue, uint64(now-1) < MaxIndexedValue
	if filedOld {
		k := int(old - 1)
		p := &x.cols[k*x.rows+r]
		if *p &^= 1 << uint(c); *p == 0 {
			if x.byVal[k] &^= 1 << uint(r); x.byVal[k] == 0 {
				x.present[k>>6] &^= 1 << uint(k&63)
			}
		}
	} else if old != 0 {
		x.over--
	}
	if filedNow {
		if int(now) > x.vcap {
			x.resize(min(max(2*x.vcap, int(now+15)&^15), MaxIndexedValue))
		}
		k := int(now - 1)
		x.cols[k*x.rows+r] |= 1 << uint(c)
		x.byVal[k] |= 1 << uint(r)
		x.present[k>>6] |= 1 << uint(k&63)
	} else if now != 0 {
		x.over++
	}
	if filedOld != filedNow {
		if filedNow {
			if x.count[r]++; x.count[r] == 1 {
				x.live |= 1 << uint(r)
			}
		} else if x.count[r]--; x.count[r] == 0 {
			x.live &^= 1 << uint(r)
		}
	}
}

// rowCount returns the number of heads filed in row r.
func (x *HeadIndex) rowCount(r int) uint64 {
	if x.count == nil {
		return 0
	}
	return x.count[r]
}

// checkHeadLane compares a head-value lane with the queue heads it
// mirrors (full rescan; validation mode only). lane[r*cols+c] belongs to
// the queue at (r, c), which the error texts name as grid[i][j] with
// (i, j) = (r, c), or (c, r) for a lane stored transposed.
func checkHeadLane(grid string, lane []int64, rows, cols int, transposed bool, head func(r, c int) int64) error {
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if got, want := lane[r*cols+c], head(r, c); got != want {
				i, j := queueAt(r, c, transposed)
				return fmt.Errorf("index: head lane for %s[%d][%d] = %d, queue head value %d", grid, i, j, got, want)
			}
		}
	}
	return nil
}

func queueAt(r, c int, transposed bool) (i, j int) {
	if transposed {
		return c, r
	}
	return r, c
}

// Check compares an index with the lane it files (full rescan;
// validation mode only): lane[r*cols+c] is the head value of grid[r][c],
// 0 for an empty queue. It is a no-op on a grid that is not indexed.
func (x *HeadIndex) Check(grid string, lane []int64, rows, cols int) error {
	if x.rows == 0 {
		return nil
	}
	over, live := 0, uint64(0)
	for r := 0; r < rows; r++ {
		n := uint64(0)
		for c := 0; c < cols; c++ {
			v := lane[r*cols+c]
			switch {
			case v == 0:
			case v < 1 || v > MaxIndexedValue:
				over++
			case int(v) > x.vcap || x.cols[int(v-1)*x.rows+r]&(1<<uint(c)) == 0:
				return fmt.Errorf("index: value index misses %s[%d][%d] under head value %d", grid, r, c, v)
			default:
				n++
			}
		}
		if got := x.rowCount(r); got != n {
			return fmt.Errorf("index: %s value index counts %d heads in row %d, lane %d", grid, got, r, n)
		}
		if n > 0 {
			live |= 1 << uint(r)
		}
	}
	if over != x.over || live != x.live {
		return fmt.Errorf("index: %s value index over=%d live=%#x, lane over=%d live=%#x", grid, x.over, x.live, over, live)
	}
	for k := 0; k < x.vcap; k++ {
		var rowsAt uint64
		for r := 0; r < rows; r++ {
			for w := x.cols[k*x.rows+r]; w != 0; w &= w - 1 {
				c := bits.TrailingZeros64(w)
				if c >= cols || lane[r*cols+c] != int64(k+1) {
					return fmt.Errorf("index: value index files %s[%d][%d] under head value %d", grid, r, c, k+1)
				}
				rowsAt |= 1 << uint(r)
			}
		}
		if x.byVal[k] != rowsAt || (x.present[k>>6]>>uint(k&63)&1 == 1) != (rowsAt != 0) {
			return fmt.Errorf("index: %s value index row mask for head value %d is %#x, want %#x", grid, k+1, x.byVal[k], rowsAt)
		}
	}
	return nil
}
