package queue

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMinValue(t *testing.T) {
	for _, disc := range []Discipline{FIFO, ByValue} {
		q := New(4, disc)
		if _, ok := q.MinValue(); ok {
			t.Errorf("%v: MinValue on empty queue", disc)
		}
		q.Push(pkt(0, 5))
		q.Push(pkt(1, 2))
		q.Push(pkt(2, 9))
		min, ok := q.MinValue()
		if !ok || min.Value != 2 {
			t.Errorf("%v: MinValue = %v, want value 2", disc, min)
		}
	}
}

func TestMinValueTieBreaksByHighestID(t *testing.T) {
	// Equal values: the canonical order ranks the higher ID as "worse",
	// so it is the preemption victim — under both disciplines.
	for _, disc := range []Discipline{FIFO, ByValue} {
		q := New(3, disc)
		q.Push(pkt(10, 4))
		q.Push(pkt(20, 4))
		min, _ := q.MinValue()
		if min.ID != 20 {
			t.Errorf("%v: min tie-break chose id %d, want 20", disc, min.ID)
		}
	}
}

func TestPushPreemptMinFIFO(t *testing.T) {
	q := New(3, FIFO)
	q.Push(pkt(0, 7))
	q.Push(pkt(1, 2)) // the min, in the middle after the next push
	q.Push(pkt(2, 5))

	// Lower or equal value than min: rejected.
	if _, did, acc := q.PushPreemptMin(pkt(3, 2)); did || acc {
		t.Error("equal-to-min arrival accepted")
	}
	// Higher: the value-2 packet goes, FIFO order of the rest preserved.
	victim, did, acc := q.PushPreemptMin(pkt(4, 9))
	if !did || !acc || victim.Value != 2 {
		t.Fatalf("victim=%v did=%v acc=%v", victim, did, acc)
	}
	want := []int64{0, 2, 4} // IDs in FIFO order
	for _, id := range want {
		p, ok := q.PopHead()
		if !ok || p.ID != id {
			t.Fatalf("FIFO order broken: got %v, want id %d", p, id)
		}
	}
}

func TestPushPreemptMinNotFull(t *testing.T) {
	q := New(2, FIFO)
	if victim, did, acc := q.PushPreemptMin(pkt(0, 1)); did || !acc || victim.ID != 0 && victim.Value != 0 {
		t.Errorf("push into empty queue: did=%v acc=%v", did, acc)
	}
}

// TestPushPreemptMinAgreesWithPushPreemptByValue: under ByValue ordering
// the tail IS the minimum, so both preemption flavors must agree exactly.
func TestPushPreemptMinAgreesWithPushPreemptByValue(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := New(3, ByValue)
		b := New(3, ByValue)
		for op := 0; op < 60; op++ {
			p := pkt(int64(op), int64(rng.Intn(8)+1))
			v1, d1, a1 := a.PushPreempt(p)
			v2, d2, a2 := b.PushPreemptMin(p)
			if v1 != v2 || d1 != d2 || a1 != a2 {
				return false
			}
			if rng.Intn(3) == 0 {
				p1, ok1 := a.PopHead()
				p2, ok2 := b.PopHead()
				if p1 != p2 || ok1 != ok2 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPushPreemptMinKeepsInvariants(t *testing.T) {
	f := func(seed int64, capRaw uint8) bool {
		capacity := int(capRaw%5) + 1
		rng := rand.New(rand.NewSource(seed))
		for _, disc := range []Discipline{FIFO, ByValue} {
			q := New(capacity, disc)
			for op := 0; op < 100; op++ {
				switch rng.Intn(3) {
				case 0:
					q.PushPreemptMin(pkt(int64(op), int64(rng.Intn(9)+1)))
				case 1:
					q.PopHead()
				default:
					popTail(q)
				}
				if err := q.CheckInvariants(); err != nil {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
