package queue

import (
	"math/rand"
	"reflect"
	"testing"

	"qswitch/internal/packet"
)

// sliceModel reimplements the queue on a plain slice, exactly as the
// pre-ring-buffer version did. It is the semantic reference for the
// property test below: any divergence between it and the ring buffer is
// a bug in the ring arithmetic.
type sliceModel struct {
	capacity int
	disc     Discipline
	items    []packet.Packet
}

func (m *sliceModel) full() bool { return len(m.items) >= m.capacity }

func (m *sliceModel) insert(p packet.Packet) {
	if m.disc == FIFO {
		m.items = append(m.items, p)
		return
	}
	lo, hi := 0, len(m.items)
	for lo < hi {
		mid := (lo + hi) / 2
		if packet.Less(m.items[mid], p) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	m.items = append(m.items, packet.Packet{})
	copy(m.items[lo+1:], m.items[lo:])
	m.items[lo] = p
}

func (m *sliceModel) push(p packet.Packet) bool {
	if m.full() {
		return false
	}
	m.insert(p)
	return true
}

func (m *sliceModel) pushPreempt(p packet.Packet) (packet.Packet, bool, bool) {
	if !m.full() {
		m.insert(p)
		return packet.Packet{}, false, true
	}
	tail := m.items[len(m.items)-1]
	if tail.Value >= p.Value {
		return packet.Packet{}, false, false
	}
	m.items = m.items[:len(m.items)-1]
	m.insert(p)
	return tail, true, true
}

func (m *sliceModel) minValue() (packet.Packet, bool) {
	if len(m.items) == 0 {
		return packet.Packet{}, false
	}
	best := 0
	for k := 1; k < len(m.items); k++ {
		if packet.Less(m.items[best], m.items[k]) {
			best = k
		}
	}
	return m.items[best], true
}

func (m *sliceModel) pushPreemptMin(p packet.Packet) (packet.Packet, bool, bool) {
	if !m.full() {
		m.insert(p)
		return packet.Packet{}, false, true
	}
	min, _ := m.minValue()
	if min.Value >= p.Value {
		return packet.Packet{}, false, false
	}
	for k := range m.items {
		if m.items[k].ID == min.ID {
			copy(m.items[k:], m.items[k+1:])
			m.items = m.items[:len(m.items)-1]
			break
		}
	}
	m.insert(p)
	return min, true, true
}

func (m *sliceModel) popHead() (packet.Packet, bool) {
	if len(m.items) == 0 {
		return packet.Packet{}, false
	}
	p := m.items[0]
	m.items = m.items[1:]
	return p, true
}

func (m *sliceModel) popTail() (packet.Packet, bool) {
	if len(m.items) == 0 {
		return packet.Packet{}, false
	}
	p := m.items[len(m.items)-1]
	m.items = m.items[:len(m.items)-1]
	return p, true
}

// TestRingMatchesSliceSemantics drives long random push/pop/preempt
// sequences through the ring-buffer queue and the slice model in
// lockstep, comparing every return value and the full contents after
// each step. Capacities above 64 exercise the ring's growth path; small
// ones exercise wrap-around.
func TestRingMatchesSliceSemantics(t *testing.T) {
	for _, disc := range []Discipline{FIFO, ByValue} {
		for _, capacity := range []int{1, 2, 3, 7, 16, 100} {
			rng := rand.New(rand.NewSource(int64(capacity)*2 + int64(disc)))
			q := New(capacity, disc)
			m := &sliceModel{capacity: capacity, disc: disc}
			var nextID int64
			for step := 0; step < 5000; step++ {
				switch rng.Intn(6) {
				case 0, 1:
					p := packet.Packet{ID: nextID, Value: rng.Int63n(20) + 1}
					nextID++
					gotErr := q.Push(p)
					want := m.push(p)
					if (gotErr == nil) != want {
						t.Fatalf("%v cap=%d step %d: Push accepted=%v want %v", disc, capacity, step, gotErr == nil, want)
					}
				case 2:
					p := packet.Packet{ID: nextID, Value: rng.Int63n(20) + 1}
					nextID++
					gv, gd, ga := q.PushPreempt(p)
					wv, wd, wa := m.pushPreempt(p)
					if gv != wv || gd != wd || ga != wa {
						t.Fatalf("%v cap=%d step %d: PushPreempt (%v,%v,%v) want (%v,%v,%v)", disc, capacity, step, gv, gd, ga, wv, wd, wa)
					}
				case 3:
					p := packet.Packet{ID: nextID, Value: rng.Int63n(20) + 1}
					nextID++
					gv, gd, ga := q.PushPreemptMin(p)
					wv, wd, wa := m.pushPreemptMin(p)
					if gv != wv || gd != wd || ga != wa {
						t.Fatalf("%v cap=%d step %d: PushPreemptMin (%v,%v,%v) want (%v,%v,%v)", disc, capacity, step, gv, gd, ga, wv, wd, wa)
					}
				case 4:
					gp, gok := q.PopHead()
					wp, wok := m.popHead()
					if gp != wp || gok != wok {
						t.Fatalf("%v cap=%d step %d: PopHead (%v,%v) want (%v,%v)", disc, capacity, step, gp, gok, wp, wok)
					}
				case 5:
					gp, gok := popTail(q)
					wp, wok := m.popTail()
					if gp != wp || gok != wok {
						t.Fatalf("%v cap=%d step %d: PopTail (%v,%v) want (%v,%v)", disc, capacity, step, gp, gok, wp, wok)
					}
				}
				if q.Len() != len(m.items) {
					t.Fatalf("%v cap=%d step %d: Len=%d want %d", disc, capacity, step, q.Len(), len(m.items))
				}
				snap := contents(q)
				if len(snap) == 0 && len(m.items) == 0 {
					// reflect.DeepEqual distinguishes nil from empty.
				} else if !reflect.DeepEqual(snap, m.items) {
					t.Fatalf("%v cap=%d step %d: contents %v want %v", disc, capacity, step, snap, m.items)
				}
				if gm, gok := q.MinValue(); true {
					wm, wok := m.minValue()
					if gm != wm || gok != wok {
						t.Fatalf("%v cap=%d step %d: MinValue (%v,%v) want (%v,%v)", disc, capacity, step, gm, gok, wm, wok)
					}
				}
				if gh, gok := q.Head(); true {
					var wh packet.Packet
					wok2 := len(m.items) > 0
					if wok2 {
						wh = m.items[0]
					}
					if gh != wh || gok != wok2 {
						t.Fatalf("%v cap=%d step %d: Head mismatch", disc, capacity, step)
					}
				}
				if gt, gok := q.Tail(); true {
					var wt packet.Packet
					wok2 := len(m.items) > 0
					if wok2 {
						wt = m.items[len(m.items)-1]
					}
					if gt != wt || gok != wok2 {
						t.Fatalf("%v cap=%d step %d: Tail mismatch", disc, capacity, step)
					}
				}
				if err := q.CheckInvariants(); err != nil {
					t.Fatalf("%v cap=%d step %d: %v", disc, capacity, step, err)
				}
			}
		}
	}
}

// TestRingSteadyStateAllocs: once a queue has reached its high-water
// occupancy, further churn must not allocate (the simulator's hot path
// depends on this).
func TestRingSteadyStateAllocs(t *testing.T) {
	for _, disc := range []Discipline{FIFO, ByValue} {
		q := New(16, disc)
		var id int64
		for k := 0; k < 16; k++ {
			q.Push(packet.Packet{ID: id, Value: id%7 + 1})
			id++
		}
		allocs := testing.AllocsPerRun(200, func() {
			q.PopHead()
			q.PushPreemptMin(packet.Packet{ID: id, Value: id%7 + 1})
			id++
			popTail(q)
			q.Push(packet.Packet{ID: id, Value: id%5 + 1})
			id++
		})
		if allocs != 0 {
			t.Errorf("%v: %v allocs per steady-state op batch, want 0", disc, allocs)
		}
	}
}
