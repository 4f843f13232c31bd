package rng

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// boundarySeeds are the seeds where math/rand's reduction changes case:
// zero, the signs, the modulus and its neighbours, the value 0 maps to,
// and the int64 extremes.
var boundarySeeds = []int64{
	0, 1, -1, 1<<31 - 2, 1<<31 - 1, 1 << 31, -(1<<31 - 1), 89482311,
	math.MinInt64, math.MaxInt64, 5, 12345678901,
}

// oracle is the generator New must reproduce.
func oracle(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// draw applies draw op (op % 10) with parameter p to r and returns what
// it produced, so two generators can be compared draw by draw.
func draw(r *rand.Rand, op, p byte) any {
	n := int(p)%50 + 1
	switch op % 10 {
	case 0:
		return r.Int63()
	case 1:
		return r.Uint64()
	case 2:
		return r.Int31n(int32(n))
	case 3:
		return r.Intn(n * 1000003)
	case 4:
		return r.Float64()
	case 5:
		return r.NormFloat64()
	case 6:
		return r.ExpFloat64()
	case 7:
		return r.Perm(n % 12)
	case 8:
		s := make([]int, n%12)
		for i := range s {
			s[i] = i
		}
		r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
		return s
	default:
		b := make([]byte, n%13)
		r.Read(b)
		return b
	}
}

// compare draws the same ops from New(seed) and the oracle after skip
// plain Int63 draws, failing at the first difference.
func compare(t *testing.T, seed int64, skip int, ops []byte) {
	t.Helper()
	got, want := New(seed), oracle(seed)
	for d := 0; d < skip; d++ {
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("seed %d: draw %d = %d, want %d", seed, d+1, g, w)
		}
	}
	for i, op := range ops {
		if g, w := draw(got, op, byte(i)*7), draw(want, op, byte(i)*7); !reflect.DeepEqual(g, w) {
			t.Fatalf("seed %d: op %d (kind %d) after %d draws = %v, want %v", seed, i, op%10, skip, g, w)
		}
	}
}

// TestStreamsCrossLazyBoundaries compares raw streams long enough to cross
// the last first-touched tap (273), the last first-touched feed (334) and
// two full turns of the state (607, 1,214).
func TestStreamsCrossLazyBoundaries(t *testing.T) {
	for _, seed := range boundarySeeds {
		for _, skip := range []int{0, 272, 273, 274, 333, 334, 335, 606, 607, 608, 1213, 1214, 1215} {
			compare(t, seed, skip, []byte{1, 0, 1})
		}
	}
}

// TestDrawMixes runs every draw kind, at every boundary, on every seed.
func TestDrawMixes(t *testing.T) {
	ops := make([]byte, 400)
	for i := range ops {
		ops[i] = byte(i*3 + i/10)
	}
	for _, seed := range boundarySeeds {
		for _, skip := range []int{0, 250, 330, 600, 1200} {
			compare(t, seed, skip, ops)
		}
	}
}

// TestReseedEqualsFresh: Seed on a partly drawn generator, including one
// left mid-way through a Read, must restart exactly as New does.
func TestReseedEqualsFresh(t *testing.T) {
	r := New(99)
	for _, seed := range boundarySeeds {
		for _, used := range []int{0, 1, 200, 400, 700} {
			for d := 0; d < used; d++ {
				r.Int63()
			}
			r.Read(make([]byte, 3))
			r.Seed(seed)
			fresh := New(seed)
			for i := 0; i < 700; i++ {
				if g, w := draw(r, byte(i), byte(i)), draw(fresh, byte(i), byte(i)); !reflect.DeepEqual(g, w) {
					t.Fatalf("seed %d after %d draws: op %d = %v, want %v", seed, used, i, g, w)
				}
			}
		}
	}
}

// TestReseedAllocatesNothing pins reuse: reseeding a held generator and
// drawing 64 numbers allocates no object.
func TestReseedAllocatesNothing(t *testing.T) {
	r := New(1)
	var seed int64
	allocs := testing.AllocsPerRun(100, func() {
		seed++
		r.Seed(seed)
		for i := 0; i < 64; i++ {
			r.Int63()
		}
	})
	if allocs != 0 {
		t.Fatalf("reseed and 64 draws allocated %v objects, want 0", allocs)
	}
}

// FuzzSeedIdentity: for any seed, prefix length and draw mix, New(seed)
// draws exactly what math/rand's own source does.
func FuzzSeedIdentity(f *testing.F) {
	for i, seed := range boundarySeeds {
		f.Add(seed, uint16(i*110), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	}
	f.Add(int64(7), uint16(1214), bytes.Repeat([]byte{9, 4, 7}, 50))
	f.Fuzz(func(t *testing.T, seed int64, skip uint16, ops []byte) {
		if len(ops) > 2000 {
			ops = ops[:2000]
		}
		compare(t, seed, int(skip%2000), ops)
	})
}

// BenchmarkSeedAndDraw34 is one E1–E4 seed's use of its generator: seed,
// then the ~34 draws the mean workload makes, through math/rand's own
// source, a fresh New and a reseeded held generator.
func BenchmarkSeedAndDraw34(b *testing.B) {
	use := func(r *rand.Rand) {
		for i := 0; i < 34; i++ {
			r.Float64()
		}
	}
	b.Run("mathrand", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			use(oracle(int64(i)))
		}
	})
	b.Run("New", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			use(New(int64(i)))
		}
	})
	b.Run("reseed", func(b *testing.B) {
		r := New(0)
		for i := 0; i < b.N; i++ {
			r.Seed(int64(i))
			use(r)
		}
	})
}
