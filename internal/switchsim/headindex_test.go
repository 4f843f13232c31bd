package switchsim

import (
	"strings"
	"testing"

	"qswitch/internal/packet"
	"qswitch/internal/queue"
)

// filedValues lists the head values an index files, top down.
func filedValues(x *HeadIndex) []int64 {
	var vs []int64
	for k := x.vcap - 1; k >= 0; k-- {
		if x.present[k>>6]>>uint(k&63)&1 == 1 {
			vs = append(vs, int64(k+1))
		}
	}
	return vs
}

// colsOf returns the mask of row r's columns whose head is worth v.
func colsOf(x *HeadIndex, v int64, r int) uint64 {
	if v < 1 || v > int64(x.vcap) {
		return 0
	}
	return x.cols[int(v-1)*x.rows+r]
}

// rowsOf returns the mask of rows with a head worth v.
func rowsOf(x *HeadIndex, v int64) uint64 {
	if v < 1 || v > int64(x.vcap) {
		return 0
	}
	return x.byVal[v-1]
}

func equalValues(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if a[k] != b[k] {
			return false
		}
	}
	return true
}

// admitAll admits each packet with the given action and fails on error
// or on a lane/index divergence after any step.
func admitAll(t *testing.T, sw *CIOQ, action AdmitAction, ps ...packet.Packet) {
	t.Helper()
	for _, p := range ps {
		if err := sw.admit(p, action); err != nil {
			t.Fatal(err)
		}
		if err := sw.checkIndex(); err != nil {
			t.Fatalf("after admitting %v: %v", p, err)
		}
	}
}

func TestHeadIndexAddRemovePreempt(t *testing.T) {
	cfg := Config{Inputs: 2, Outputs: 3, InputBuf: 2, OutputBuf: 2, Speedup: 1, Validate: true}
	sw := NewCIOQ(cfg, queue.ByValue, queue.ByValue)
	x := &sw.IQIndex
	if !x.Ready() || len(filedValues(x)) != 0 || x.live != 0 {
		t.Fatalf("empty switch: ready=%v filed %v live=%#x", x.Ready(), filedValues(x), x.live)
	}
	admitAll(t, sw, Accept,
		packet.Packet{ID: 0, In: 0, Out: 1, Value: 5},
		packet.Packet{ID: 1, In: 0, Out: 1, Value: 3}, // below the head: no move
		packet.Packet{ID: 2, In: 1, Out: 2, Value: 5},
		packet.Packet{ID: 3, In: 1, Out: 0, Value: 70}, // beyond the first 64 values
	)
	if got := sw.IQHead[0*3+1]; got != 5 {
		t.Errorf("IQHead for IQ[0][1] = %d, want 5", got)
	}
	if got := filedValues(x); !equalValues(got, []int64{70, 5}) {
		t.Errorf("filed values %v, want [70 5]", got)
	}
	if rowsOf(x, 5) != 0b11 || colsOf(x, 5, 0) != 1<<1 || colsOf(x, 5, 1) != 1<<2 || rowsOf(x, 70) != 0b10 {
		t.Errorf("buckets: Rows(5)=%#b Cols(5,0)=%#b Cols(5,1)=%#b Rows(70)=%#b",
			rowsOf(x, 5), colsOf(x, 5, 0), colsOf(x, 5, 1), rowsOf(x, 70))
	}
	if x.live != 0b11 || rowsOf(x, 3) != 0 || rowsOf(x, 0) != 0 || colsOf(x, 9999, 0) != 0 {
		t.Errorf("live=%#b Rows(3)=%#b", x.live, rowsOf(x, 3))
	}

	// Preemption on a full queue: the newcomer displaces the tail (3) and
	// becomes the head.
	admitAll(t, sw, AcceptPreempt, packet.Packet{ID: 4, In: 0, Out: 1, Value: 9})
	if got := sw.IQHead[1]; got != 9 {
		t.Errorf("after preemption IQHead for IQ[0][1] = %d, want 9", got)
	}
	if got := filedValues(x); !equalValues(got, []int64{70, 9, 5}) {
		t.Errorf("filed values %v, want [70 9 5]", got)
	}

	// Pops refile the queue under its next head, and empty it last.
	for _, want := range []int64{5, 0} {
		if err := sw.executeTransfers([]Transfer{{In: 0, Out: 1}}); err != nil {
			t.Fatal(err)
		}
		sw.transmit(0)
		if err := sw.checkIndex(); err != nil {
			t.Fatal(err)
		}
		if got := sw.IQHead[1]; got != want {
			t.Errorf("after pop IQHead for IQ[0][1] = %d, want %d", got, want)
		}
	}
	if x.live != 0b10 || rowsOf(x, 5) != 0b10 {
		t.Errorf("after draining input 0: live=%#b Rows(5)=%#b", x.live, rowsOf(x, 5))
	}
}

func TestHeadIndexPreemptsSingleSlotQueue(t *testing.T) {
	cfg := Config{Inputs: 1, Outputs: 1, InputBuf: 1, OutputBuf: 1, Speedup: 1, Validate: true}
	sw := NewCIOQ(cfg, queue.ByValue, queue.ByValue)
	admitAll(t, sw, AcceptPreempt,
		packet.Packet{ID: 0, Value: 4},
		packet.Packet{ID: 1, Value: 2}, // rejected: not better than the tail
		packet.Packet{ID: 2, Value: 7}, // preempts the head itself
	)
	if sw.IQHead[0] != 7 || !equalValues(filedValues(&sw.IQIndex), []int64{7}) {
		t.Errorf("IQHead %d, filed %v; want 7, [7]", sw.IQHead[0], filedValues(&sw.IQIndex))
	}
}

func TestHeadIndexGrowsLazily(t *testing.T) {
	var x HeadIndex
	x.Reset(2)
	if x.vcap != 0 || x.cols != nil || len(filedValues(&x)) != 0 {
		t.Fatalf("empty index holds buckets for %d values", x.vcap)
	}
	x.Move(0, 0, 0, 50)
	if x.vcap != 64 {
		t.Errorf("value 50: capacity %d, want 64 (rounded up to 16)", x.vcap)
	}
	x.Move(0, 0, 50, 64)
	if x.vcap != 64 {
		t.Errorf("value 64 grew the index to %d", x.vcap)
	}
	x.Move(0, 1, 0, 65)
	if x.vcap != 128 {
		t.Errorf("value 65: capacity %d, want 128 (doubling)", x.vcap)
	}
	x.Move(1, 3, 0, 1000)
	if x.vcap != 1008 {
		t.Errorf("value 1000: capacity %d, want 1008 (rounded up past doubling)", x.vcap)
	}
	x.Move(1, 3, 1000, MaxIndexedValue)
	if x.vcap != MaxIndexedValue || !x.Ready() {
		t.Errorf("value %d: capacity %d ready=%v, want %d true", MaxIndexedValue, x.vcap, x.Ready(), MaxIndexedValue)
	}
	// Growth keeps everything filed before it.
	if got := filedValues(&x); !equalValues(got, []int64{MaxIndexedValue, 65, 64}) {
		t.Errorf("filed values %v", got)
	}
	if colsOf(&x, 64, 0) != 1 || colsOf(&x, 65, 0) != 2 || colsOf(&x, MaxIndexedValue, 1) != 1<<3 || x.live != 0b11 {
		t.Errorf("buckets lost in growth: %#b %#b %#b live %#b", colsOf(&x, 64, 0), colsOf(&x, 65, 0), colsOf(&x, MaxIndexedValue, 1), x.live)
	}
}

func TestHeadIndexOverflowAndReturn(t *testing.T) {
	cfg := Config{Inputs: 2, Outputs: 2, InputBuf: 2, OutputBuf: 2, Speedup: 1, Validate: true}
	sw := NewCIOQ(cfg, queue.ByValue, queue.ByValue)
	x := &sw.IQIndex
	admitAll(t, sw, Accept,
		packet.Packet{ID: 0, In: 0, Out: 0, Value: 10},
		packet.Packet{ID: 1, In: 1, Out: 1, Value: MaxIndexedValue},
	)
	if !x.Ready() {
		t.Fatal("a head of exactly MaxIndexedValue made the index not ready")
	}
	admitAll(t, sw, Accept, packet.Packet{ID: 2, In: 0, Out: 0, Value: MaxIndexedValue + 1})
	if x.Ready() || x.over != 1 {
		t.Fatalf("head above the cap: ready=%v over=%d", x.Ready(), x.over)
	}
	// The overflowing head is counted, not filed; the queue's old head left
	// its bucket.
	if got := filedValues(x); !equalValues(got, []int64{MaxIndexedValue}) || x.live != 0b10 {
		t.Errorf("filed values %v live %#b", got, x.live)
	}
	// Popping it refiles the queue under the head below the cap.
	if err := sw.executeTransfers([]Transfer{{In: 0, Out: 0}}); err != nil {
		t.Fatal(err)
	}
	if err := sw.checkIndex(); err != nil {
		t.Fatal(err)
	}
	if !x.Ready() || !equalValues(filedValues(x), []int64{MaxIndexedValue, 10}) {
		t.Errorf("after the pop: ready=%v filed %v", x.Ready(), filedValues(x))
	}
}

func TestHeadIndexKeptOnlyForValueOrderedGrids(t *testing.T) {
	fifo := NewCIOQ(Config{Inputs: 2, Outputs: 2, InputBuf: 1, OutputBuf: 1, Speedup: 1}, queue.FIFO, queue.FIFO)
	if fifo.IQHead != nil || fifo.IQIndex.Ready() {
		t.Error("FIFO input queues got a head lane or index")
	}
	wide := NewCIOQ(Config{Inputs: 65, Outputs: 2, InputBuf: 1, OutputBuf: 1, Speedup: 1}, queue.ByValue, queue.ByValue)
	if wide.IQHead == nil || wide.IQIndex.Ready() {
		t.Error("65 inputs: want a head lane but no value index")
	}
	xbar := NewCrossbar(Config{Inputs: 2, Outputs: 65, InputBuf: 1, OutputBuf: 1, CrossBuf: 1, Speedup: 1},
		queue.ByValue, queue.ByValue, queue.ByValue)
	if xbar.IQHead == nil || xbar.XHead == nil {
		t.Error("65 outputs: want both head lanes")
	}
	mixed := NewCrossbar(Config{Inputs: 2, Outputs: 2, InputBuf: 1, OutputBuf: 1, CrossBuf: 1, Speedup: 1},
		queue.FIFO, queue.ByValue, queue.FIFO)
	if mixed.IQHead != nil || mixed.XHead == nil {
		t.Error("FIFO inputs, ByValue crosspoints: want only the crosspoint lane")
	}
}

// valueXbar is xbarPolicy on value-ordered queues.
type valueXbar struct{ *xbarPolicy }

func (valueXbar) Disciplines() (queue.Discipline, queue.Discipline, queue.Discipline) {
	return queue.ByValue, queue.ByValue, queue.ByValue
}

func TestCorruptHeadLaneFailsValidate(t *testing.T) {
	cfg := Config{Inputs: 2, Outputs: 3, InputBuf: 2, OutputBuf: 2, CrossBuf: 2, Speedup: 1, Validate: true, Slots: 4}
	seq := packet.Sequence{
		{ID: 0, Arrival: 0, In: 1, Out: 2, Value: 6},
		{ID: 1, Arrival: 0, In: 1, Out: 2, Value: 8},
		{ID: 2, Arrival: 0, In: 0, Out: 1, Value: 3},
	}
	idle := func(*CIOQ, int, int) []Transfer { return nil }
	for _, tc := range []struct {
		name    string
		corrupt func(sw *CIOQ)
		want    string
	}{
		{"lane", func(sw *CIOQ) { sw.IQHead[1*3+2]++ }, "head lane for IQ[1][2] = 9, queue head value 8"},
		{"index", func(sw *CIOQ) { sw.IQIndex.cols[(8-1)*2+1] = 0 }, "value index misses IQ[1][2] under head value 8"},
		{"stray", func(sw *CIOQ) { sw.IQIndex.cols[(12-1)*2+0] |= 1 << 2 }, "value index files IQ[0][2] under head value 12"},
	} {
		pol := &passPolicy{inDisc: queue.ByValue, outDisc: queue.ByValue, sched: func(sw *CIOQ, slot, cycle int) []Transfer {
			if slot == 1 {
				tc.corrupt(sw)
			}
			return idle(sw, slot, cycle)
		}}
		_, err := RunCIOQ(cfg, pol, seq)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want it to contain %q", tc.name, err, tc.want)
		}
	}

	// The crosspoint lane is stored transposed; errors still name XQ[i][j].
	xb := &xbarPolicy{outSub: func(sw *Crossbar, slot, cycle int) []Transfer {
		if slot == 1 {
			sw.XHead[2*2+1] = 99 // XQ[1][2]
		}
		return nil
	}}
	xb.inSub = func(sw *Crossbar, slot, cycle int) []Transfer {
		if slot == 0 {
			return []Transfer{{In: 1, Out: 2}}
		}
		return nil
	}
	_, err := RunCrossbar(cfg, valueXbar{xb}, seq)
	if want := "head lane for XQ[1][2] = 99, queue head value 8"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("crossbar: error %v, want it to contain %q", err, want)
	}
	xi := &xbarPolicy{
		inSub: func(*Crossbar, int, int) []Transfer { return nil },
		outSub: func(sw *Crossbar, slot, cycle int) []Transfer {
			sw.IQHead[0*3+1] = 5 // IQ[0][1] holds the packet of value 3
			return nil
		},
	}
	_, err = RunCrossbar(cfg, valueXbar{xi}, seq)
	if want := "head lane for IQ[0][1] = 5, queue head value 3"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("crossbar input lane: error %v, want it to contain %q", err, want)
	}
}
