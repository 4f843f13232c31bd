package queue

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"qswitch/internal/packet"
)

func pkt(id int64, v int64) packet.Packet { return packet.Packet{ID: id, Value: v} }

func TestNewPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) did not panic")
		}
	}()
	New(0, FIFO)
}

func TestFIFOOrdering(t *testing.T) {
	q := New(3, FIFO)
	for i := int64(0); i < 3; i++ {
		if err := q.Push(pkt(i, 10-i)); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	if err := q.Push(pkt(9, 100)); err != ErrFull {
		t.Fatalf("push into full queue: got %v, want ErrFull", err)
	}
	for i := int64(0); i < 3; i++ {
		p, ok := q.PopHead()
		if !ok || p.ID != i {
			t.Fatalf("pop %d: got %v ok=%v", i, p, ok)
		}
	}
	if _, ok := q.PopHead(); ok {
		t.Error("pop from empty queue succeeded")
	}
}

func TestByValueOrdering(t *testing.T) {
	q := New(5, ByValue)
	vals := []int64{3, 9, 1, 9, 5}
	for i, v := range vals {
		if err := q.Push(pkt(int64(i), v)); err != nil {
			t.Fatalf("push: %v", err)
		}
	}
	// Head must be the highest value with the lowest ID among ties.
	head, _ := q.Head()
	if head.Value != 9 || head.ID != 1 {
		t.Errorf("head = %v, want value 9 id 1", head)
	}
	tail, _ := q.Tail()
	if tail.Value != 1 {
		t.Errorf("tail = %v, want value 1", tail)
	}
	var got []int64
	for {
		p, ok := q.PopHead()
		if !ok {
			break
		}
		got = append(got, p.Value)
	}
	want := []int64{9, 9, 5, 3, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
}

func TestPushPreemptSemantics(t *testing.T) {
	q := New(2, ByValue)
	q.Push(pkt(0, 5))
	q.Push(pkt(1, 3))

	// Equal value must NOT preempt (strict inequality in the paper).
	if _, did, acc := q.PushPreempt(pkt(2, 3)); did || acc {
		t.Errorf("equal-value packet preempted/accepted: did=%v acc=%v", did, acc)
	}
	// Lower value must be rejected.
	if _, did, acc := q.PushPreempt(pkt(3, 2)); did || acc {
		t.Errorf("lower-value packet preempted/accepted: did=%v acc=%v", did, acc)
	}
	// Higher value preempts the tail (the minimum).
	victim, did, acc := q.PushPreempt(pkt(4, 7))
	if !did || !acc {
		t.Fatalf("higher-value packet not accepted: did=%v acc=%v", did, acc)
	}
	if victim.Value != 3 {
		t.Errorf("preempted %v, want the value-3 tail", victim)
	}
	head, _ := q.Head()
	if head.Value != 7 {
		t.Errorf("head %v, want value 7", head)
	}
	// Non-full queue accepts without preemption.
	q2 := New(2, ByValue)
	if _, did, acc := q2.PushPreempt(pkt(9, 1)); did || !acc {
		t.Errorf("push into empty queue: did=%v acc=%v", did, acc)
	}
}

// popTail removes and returns the tail packet: PushPreempt's preemption
// step on its own, one operation of the randomized mixes.
func popTail(q *Queue) (packet.Packet, bool) {
	p, ok := q.Tail()
	if ok {
		q.n--
	}
	return p, ok
}

// contents returns a copy of the queue in queue order (head first).
func contents(q *Queue) []packet.Packet {
	out := make([]packet.Packet, q.Len())
	for k := range out {
		out[k] = q.buf[q.idx(k)]
	}
	return out
}

func TestAccessors(t *testing.T) {
	q := New(4, FIFO)
	if !q.Empty() || q.Full() || q.Len() != 0 {
		t.Error("fresh queue accessors wrong")
	}
	q.Push(pkt(0, 2))
	q.Push(pkt(1, 3))
	if q.Empty() || q.Full() || q.Len() != 2 {
		t.Error("partially filled queue accessors wrong")
	}
	if c := contents(q); c[0].ID != 0 || c[1].ID != 1 {
		t.Error("queue holds the wrong packets")
	}
	q.Reset()
	if !q.Empty() {
		t.Error("Reset did not empty the queue")
	}
}

func TestDisciplineString(t *testing.T) {
	if FIFO.String() != "fifo" || ByValue.String() != "byvalue" {
		t.Error("discipline names wrong")
	}
	if Discipline(42).String() == "" {
		t.Error("unknown discipline renders empty")
	}
}

// TestByValueMatchesReferenceModel drives the queue and a naive reference
// (sorted slice) with identical random operations and checks behavioral
// equality — a model-based property test.
func TestByValueMatchesReferenceModel(t *testing.T) {
	f := func(seed int64, capRaw uint8) bool {
		capacity := int(capRaw%8) + 1
		rng := rand.New(rand.NewSource(seed))
		q := New(capacity, ByValue)
		var ref []packet.Packet
		sortRef := func() {
			sort.Slice(ref, func(a, b int) bool { return packet.Less(ref[a], ref[b]) })
		}
		for op := 0; op < 200; op++ {
			switch rng.Intn(4) {
			case 0: // PushPreempt
				p := pkt(int64(op), int64(rng.Intn(6)+1))
				victim, did, acc := q.PushPreempt(p)
				// Reference semantics.
				if len(ref) < capacity {
					ref = append(ref, p)
					sortRef()
					if !acc || did {
						return false
					}
				} else {
					tail := ref[len(ref)-1]
					if tail.Value < p.Value {
						ref[len(ref)-1] = p
						sortRef()
						if !acc || !did || victim != tail {
							return false
						}
					} else if acc || did {
						return false
					}
				}
			case 1: // PopHead
				p, ok := q.PopHead()
				if len(ref) == 0 {
					if ok {
						return false
					}
				} else {
					if !ok || p != ref[0] {
						return false
					}
					ref = ref[1:]
				}
			case 2: // PopTail
				p, ok := popTail(q)
				if len(ref) == 0 {
					if ok {
						return false
					}
				} else {
					if !ok || p != ref[len(ref)-1] {
						return false
					}
					ref = ref[:len(ref)-1]
				}
			default: // Push
				p := pkt(int64(op), int64(rng.Intn(6)+1))
				err := q.Push(p)
				if len(ref) < capacity {
					if err != nil {
						return false
					}
					ref = append(ref, p)
					sortRef()
				} else if err != ErrFull {
					return false
				}
			}
			if q.Len() != len(ref) {
				return false
			}
			if err := q.CheckInvariants(); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestCheckInvariantsCatchesViolations(t *testing.T) {
	q := New(2, ByValue)
	q.Push(pkt(0, 1))
	q.Push(pkt(1, 9))
	if err := q.CheckInvariants(); err != nil {
		t.Fatalf("valid queue flagged: %v", err)
	}
}

func TestFIFOPushPreemptUsesInsertionOrderTail(t *testing.T) {
	// Under FIFO, PushPreempt compares against the newest packet; the
	// unit-value algorithms never rely on this, but the semantics must
	// still be deterministic.
	q := New(1, FIFO)
	q.Push(pkt(0, 5))
	victim, did, acc := q.PushPreempt(pkt(1, 9))
	if !did || !acc || victim.ID != 0 {
		t.Errorf("FIFO preempt: victim=%v did=%v acc=%v", victim, did, acc)
	}
}
