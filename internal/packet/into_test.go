package packet

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refNormalize is Normalize as it was before the order check: an
// unconditional sort by (Arrival, ID), then IDs renumbered 0..len-1. The
// production body must produce exactly this on every input.
func refNormalize(s Sequence) Sequence {
	sort.Slice(s, func(a, b int) bool {
		if s[a].Arrival != s[b].Arrival {
			return s[a].Arrival < s[b].Arrival
		}
		return s[a].ID < s[b].ID
	})
	for i := range s {
		s[i].ID = int64(i)
	}
	return s
}

// TestNormalizeMatchesSortReference holds the check-then-sort Normalize to
// the sort-based reference on inputs that take the fast path (sorted) and
// inputs that must sort: shuffled, arrival ties with descending IDs, and
// duplicate (Arrival, ID) pairs whose other fields differ, where only the
// same sort can reproduce the reference's order.
func TestNormalizeMatchesSortReference(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	sorted := Bernoulli{Load: 0.9, Values: UniformValues{Hi: 50}}.Generate(r, 4, 4, 60)
	shuffled := sorted.Clone()
	r.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
	ties := sorted.Clone()
	for i := range ties {
		ties[i].Arrival /= 7
		ties[i].ID = int64(len(ties) - i)
	}
	dups := make(Sequence, 0, 3*len(sorted))
	for i, p := range sorted {
		p.Arrival, p.ID = i%5, int64(i%3)
		dups = append(dups, p)
	}
	sortedDups := refNormalize(dups.Clone())
	for i := range sortedDups {
		sortedDups[i].ID = int64(i / 2)
	}
	for _, c := range []struct {
		name string
		seq  Sequence
	}{
		{"empty", nil},
		{"one", sorted[:1]},
		{"sorted", sorted},
		{"sorted with gaps in the IDs", func() Sequence {
			s := sorted.Clone()
			for i := range s {
				s[i].ID = int64(3*i + 5)
			}
			return s
		}()},
		{"shuffled", shuffled},
		{"tied arrivals", ties},
		{"duplicate IDs", dups},
		{"sorted with duplicate IDs", sortedDups},
	} {
		want := refNormalize(c.seq.Clone())
		got := c.seq.Clone().Normalize()
		if !slices.Equal(got, want) {
			t.Errorf("%s: Normalize diverged from the sort-based reference", c.name)
		}
	}
}

// TestNormalizeSortedAllocatesNothing pins the fast path: an input already
// in (Arrival, ID) order is only renumbered.
func TestNormalizeSortedAllocatesNothing(t *testing.T) {
	seq := Bernoulli{Load: 0.9}.Generate(rand.New(rand.NewSource(5)), 8, 8, 100)
	if got := testing.AllocsPerRun(20, func() { seq.Normalize() }); got != 0 {
		t.Fatalf("Normalize of a sorted sequence allocates %.1f objects", got)
	}
}

// intoTraffics and intoValues are every traffic and value-distribution
// name GeneratorByName resolves.
var (
	intoTraffics = []string{"uniform", "bursty", "hotspot", "diagonal", "permutation", "poissonburst",
		"diurnal", "flowmix", "burstblock", "crossdrain", "heavytail"}
	intoValues = []string{"unit", "two", "uniform", "zipf", "geometric"}
)

// FuzzGenerateInto holds GenerateInto to Generate for every registry
// generator — the SlotStreamers and the materializing fallback — at a
// random geometry, horizon and seed, drawing into a dst that holds garbage
// of random length and capacity: equal packets, and the RNG left in the
// same state.
func FuzzGenerateInto(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(200), uint8(4), uint8(4), uint16(64), int64(1), uint16(0), uint16(0))
	f.Add(uint8(7), uint8(2), uint8(100), uint8(3), uint8(5), uint16(900), int64(2), uint16(7), uint16(500))
	f.Add(uint8(5), uint8(4), uint8(40), uint8(1), uint8(1), uint16(300), int64(3), uint16(300), uint16(10))
	f.Add(uint8(10), uint8(1), uint8(10), uint8(8), uint8(2), uint16(2000), int64(4), uint16(2), uint16(2))
	f.Add(uint8(6), uint8(3), uint8(90), uint8(2), uint8(6), uint16(2500), int64(5), uint16(40), uint16(4000))
	f.Fuzz(func(t *testing.T, traffic, values, load uint8, nIn, nOut uint8, horizon uint16, seed int64, dstLen, dstCap uint16) {
		name, vname := intoTraffics[int(traffic)%len(intoTraffics)], intoValues[int(values)%len(intoValues)]
		gen, err := GeneratorByName(name, vname, float64(load%250+1)/100)
		if err != nil {
			t.Skip() // a load the pattern rejects
		}
		inputs, outputs := int(nIn)%8+1, int(nOut)%8+1
		slots := int(horizon) % 3001

		wantRNG := rand.New(rand.NewSource(seed))
		want := gen.Generate(wantRNG, inputs, outputs, slots)

		n := int(dstLen) % 4096
		dst := make(Sequence, n, n+int(dstCap)%4096)
		for i := range dst[:cap(dst)] {
			dst[:cap(dst)][i] = Packet{ID: int64(-i), Arrival: 1 << 20, In: -1, Out: 99, Value: -7}
		}
		gotRNG := rand.New(rand.NewSource(seed))
		got := GenerateInto(dst, gen, gotRNG, inputs, outputs, slots)
		if !slices.Equal(got, want) {
			t.Fatalf("%s/%s %dx%d slots=%d seed=%d: GenerateInto (%d packets) != Generate (%d packets)",
				name, vname, inputs, outputs, slots, seed, len(got), len(want))
		}
		if gotRNG.Int63() != wantRNG.Int63() {
			t.Fatalf("%s/%s: GenerateInto left the RNG in a different state than Generate", name, vname)
		}
	})
}
