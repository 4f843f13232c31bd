package switchsim

import (
	"fmt"
	"math/bits"
)

// MaxIndexedValue is the largest head value a HeadIndex files under its
// value. It is the weight cap of package matching's counting-sort path and
// of the columnar fleet's PG fast path; a head above it (or below 1) is
// only counted, and while any such head is queued the index is not Ready.
const MaxIndexedValue = 2048

// maxIndexedPorts bounds both sides of an indexed grid, so that a row of
// the grid and the set of rows each fit one machine word.
const maxIndexedPorts = 64

// HeadIndex files the queues of one value-ordered queue grid under the
// value of their head packet. The engine keeps it exact at every push, pop
// and preemption, in O(1) per change, and policies treat it as read-only.
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

// Live returns the mask of rows holding at least one filed head. When the
// index is Ready these are exactly the rows with a non-empty queue.
func (x *HeadIndex) Live() uint64 { return x.live }

// Top returns the largest filed head value, or 0 when nothing is filed.
func (x *HeadIndex) Top() int64 { return x.Below(int64(x.vcap) + 1) }

// Below returns the largest filed head value smaller than v, or 0.
func (x *HeadIndex) Below(v int64) int64 {
	if v <= 1 {
		return 0
	}
	k := int(min(v-1, int64(x.vcap))) // bits [0, k) stand for values 1..k
	w := k >> 6
	if w < len(x.present) {
		if word := x.present[w] & (1<<uint(k&63) - 1); word != 0 {
			return int64(w<<6 + 64 - bits.LeadingZeros64(word))
		}
	}
	for w--; w >= 0; w-- {
		if word := x.present[w]; word != 0 {
			return int64(w<<6 + 64 - bits.LeadingZeros64(word))
		}
	}
	return 0
}

// Rows returns the mask of rows with a head worth v.
func (x *HeadIndex) Rows(v int64) uint64 {
	if v < 1 || v > int64(x.vcap) {
		return 0
	}
	return x.byVal[v-1]
}

// Cols returns the mask of row r's columns whose head is worth v.
func (x *HeadIndex) Cols(v int64, r int) uint64 {
	if v < 1 || v > int64(x.vcap) {
		return 0
	}
	return x.cols[int(v-1)*x.rows+r]
}

// indexable reports whether a rows×cols grid gets a value index.
func indexable(rows, cols int) bool {
	return rows <= maxIndexedPorts && cols <= maxIndexedPorts
}

// init prepares an empty index over `rows` rows; nothing is allocated
// until a head is filed.
func (x *HeadIndex) init(rows int) { *x = HeadIndex{rows: rows} }

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

// move refiles the queue at (r, c) from head value old to head value now;
// 0 stands for an empty queue. It is a no-op on a grid that is not indexed.
func (x *HeadIndex) move(r, c int, old, now int64) {
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

// check compares an index with the lane it files (full rescan;
// validation mode only): lane[r*cols+c] is the head value of grid[r][c].
// It is a no-op on a grid that is not indexed.
func (x *HeadIndex) check(grid string, lane []int64, rows, cols int) error {
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
			case x.Cols(v, r)&(1<<uint(c)) == 0:
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
