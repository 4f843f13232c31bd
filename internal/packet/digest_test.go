package packet

import (
	"bufio"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/generator_digests.txt")

// digestGeometries, digestHorizons and digestSeeds span the grid every
// registry traffic × value distribution is pinned on, at digestLoad (a load
// every pattern accepts).
const digestLoad = 0.1

var (
	digestGeometries = [][2]int{{1, 1}, {2, 3}, {3, 2}}
	digestHorizons   = []int{1500, 100_000}
	digestSeeds      = []int64{1, 2}
)

const digestFile = "testdata/generator_digests.txt"

// seqDigest folds every field of every packet, then the RNG's next Int63,
// into one 64-bit FNV-1a-style word hash (a word per field, not a byte).
func seqDigest(seq Sequence, rng *rand.Rand) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v int64) { h = (h ^ uint64(v)) * 1099511628211 }
	for _, p := range seq {
		mix(p.ID)
		mix(int64(p.Arrival))
		mix(int64(p.In))
		mix(int64(p.Out))
		mix(p.Value)
	}
	mix(rng.Int63())
	return h
}

// garbage returns storage of n packets, every field an impossible value.
func garbage(n int) Sequence {
	dst := make(Sequence, n)
	for i := range dst {
		dst[i] = Packet{ID: int64(-i), Arrival: 1 << 20, In: -1, Out: 99, Value: -7}
	}
	return dst
}

// generatorDigests draws every registry traffic × value name over the
// digest grid three ways — Generate, GenerateInto over garbage storage and
// a drained StreamTraffic — and returns one line per cell with the packet
// count and the digest. A cell whose three ways disagree is reported
// through t; its line carries Generate's digest. The traffics are drawn
// in parallel; the lines come back in catalog order.
func generatorDigests(t *testing.T) []string {
	perTraffic := make([][]string, len(intoTraffics))
	t.Run("draw", func(t *testing.T) {
		for k, name := range intoTraffics {
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				perTraffic[k] = trafficDigests(t, name)
			})
		}
	})
	return slices.Concat(perTraffic...)
}

func trafficDigests(t *testing.T, name string) []string {
	var lines []string
	for _, vname := range intoValues {
		gen, err := GeneratorByName(name, vname, digestLoad)
		if err != nil {
			t.Fatal(err)
		}
		for _, geo := range digestGeometries {
			for _, slots := range digestHorizons {
				for _, seed := range digestSeeds {
					r := rand.New(rand.NewSource(seed))
					seq := gen.Generate(r, geo[0], geo[1], slots)
					want := seqDigest(seq, r)

					r = rand.New(rand.NewSource(seed))
					into := GenerateInto(garbage(len(seq)/3+5), gen, r, geo[0], geo[1], slots)
					r2 := rand.New(rand.NewSource(seed))
					streamed := drain(t, StreamTraffic(gen, r2, geo[0], geo[1], slots))
					cell := fmt.Sprintf("%s %s %dx%d %d %d", name, vname, geo[0], geo[1], slots, seed)
					if got := seqDigest(into, r); got != want {
						t.Errorf("%s: GenerateInto digest %016x, Generate %016x", cell, got, want)
					}
					if got := seqDigest(streamed, r2); got != want {
						t.Errorf("%s: StreamTraffic digest %016x, Generate %016x", cell, got, want)
					}
					lines = append(lines, fmt.Sprintf("%s n=%d %016x", cell, len(seq), want))
				}
			}
		}
	}
	return lines
}

// TestGeneratorDigests holds every registry generator to the digests
// recorded in testdata: the same packets, field for field, and the RNG
// left in the same state, whichever way the sequence is drawn. Regenerate
// with
//
//	go test ./internal/packet -run TestGeneratorDigests -update
//
// only for a change that is meant to alter generated traffic.
func TestGeneratorDigests(t *testing.T) {
	got := generatorDigests(t)
	if *updateDigests {
		body := "# traffic values inputsxoutputs slots seed packets digest\n" + strings.Join(got, "\n") + "\n"
		if err := os.MkdirAll(filepath.Dir(digestFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestFile, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(digestFile)
	if err != nil {
		t.Fatalf("reading digests (run with -update to create): %v", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d digest cells, testdata has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("digest changed:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
