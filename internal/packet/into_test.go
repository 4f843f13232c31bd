package packet

import (
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"unsafe"
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
// generator — the SlotStreamers and the four renewal generators — at a
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

// TestGenerateAllocatesOnce pins the materialized draw's sizing: Generate
// of an N-packet sequence allocates at most 1.25·N packets' worth of bytes
// in all, where growing along append's chain allocated several times N.
// The shapes are dense_switch's Bernoulli draw at half its width and every
// registry traffic whose rate is steady from the first 64th of the horizon
// on. Diurnal and FlowMix follow a cycle (1,000 and 10,000 slots here)
// that a short horizon's first 64th does not span, so their first estimate
// misses by up to the swing of the cycle; they are held to 2·N.
func TestGenerateAllocatesOnce(t *testing.T) {
	type shape struct {
		name       string
		gen        Generator
		n, slots   int
		maxPerSize float64
	}
	shapes := []shape{{"dense_switch Bernoulli", Bernoulli{Load: 0.95, Values: UniformValues{Hi: 100}}, 32, 20_000, 1.25}}
	for _, tc := range trafficCatalog {
		gen, err := GeneratorByName(tc.name, "uniform", tc.okLoad)
		if err != nil {
			t.Fatal(err)
		}
		limit := 1.25
		if tc.name == "diurnal" || tc.name == "flowmix" {
			limit = 2
		}
		shapes = append(shapes, shape{tc.name, gen, 8, 50_000, limit})
	}
	for _, c := range shapes {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		seq := c.gen.Generate(rand.New(rand.NewSource(3)), c.n, c.n, c.slots)
		runtime.ReadMemStats(&after)
		packets := float64(len(seq)) * float64(unsafe.Sizeof(Packet{}))
		if got := float64(after.TotalAlloc-before.TotalAlloc) / packets; got > c.maxPerSize {
			t.Errorf("%s %dx%dx%d: Generate of %d packets allocated %.2f× their size, want <= %.2f×",
				c.name, c.n, c.n, c.slots, len(seq), got, c.maxPerSize)
		}
	}
}

// TestGenerateIntoFitAllocatesNothing: drawing every registry traffic into
// storage that already fits allocates nothing — no sequence, no source,
// no per-input state — the four renewal generators included.
func TestGenerateIntoFitAllocatesNothing(t *testing.T) {
	for _, tc := range trafficCatalog {
		gen, err := GeneratorByName(tc.name, "zipf", tc.okLoad)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(1))
		dst := GenerateInto(nil, gen, r, 4, 4, 2000)
		dst = slices.Grow(dst, len(dst))
		if a := testing.AllocsPerRun(20, func() {
			r.Seed(1)
			dst = GenerateInto(dst, gen, r, 4, 4, 2000)
		}); a != 0 {
			t.Errorf("%s: GenerateInto into storage that fits allocates %.1f objects", tc.name, a)
		}
	}
}

// TestNormalizeUnsortedAllocatesNothing pins the sort: an input out of
// (Arrival, ID) order is sorted in place without an allocation.
func TestNormalizeUnsortedAllocatesNothing(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	shuffled := Bernoulli{Load: 0.9}.Generate(r, 8, 8, 100)
	r.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
	work := shuffled.Clone()
	if got := testing.AllocsPerRun(20, func() {
		copy(work, shuffled)
		work.Normalize()
	}); got != 0 {
		t.Fatalf("Normalize of an unsorted sequence allocates %.1f objects", got)
	}
}
