package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"qswitch/internal/stats"
)

var update = flag.Bool("update", false, "rewrite the golden experiment CSVs")

// renderCSVs renders an experiment's tables the same way switchbench's
// -csv mode does, concatenated with table headers.
func renderCSVs(t *testing.T, id string, opts Options) []byte {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %s missing", id)
	}
	tables, err := e.Run(opts)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	var buf bytes.Buffer
	for i, tb := range tables {
		fmt.Fprintf(&buf, "# table %d: %s\n", i, tb.Title)
		tb.RenderCSV(&buf)
	}
	return buf.Bytes()
}

// goldenIDs is every experiment whose quick-mode CSVs reproduce byte for
// byte: all of them except the two wall-clock tables, E5 (timed matching
// costs) and E9 (its sim_ns_per_slot column).
func goldenIDs() []string {
	var ids []string
	for _, e := range All() {
		if e.ID != "e5" && e.ID != "e9" {
			ids = append(ids, e.ID)
		}
	}
	return ids
}

// goldenPath is the checked-in golden for one experiment.
func goldenPath(id string) string {
	return filepath.Join("testdata", "golden", id+".csv")
}

// TestGoldenExperimentCSVs pins the CSV output of every deterministic
// experiment (quick mode, fixed seed) against checked-in goldens, so any
// change to a number or to table shape — column order, CI annotations,
// formatting — is always explicit. Regenerate with:
//
//	go test ./internal/experiments -run TestGoldenExperimentCSVs -update
func TestGoldenExperimentCSVs(t *testing.T) {
	for _, id := range goldenIDs() {
		got := renderCSVs(t, id, Options{Quick: true, Seed: 5})
		path := goldenPath(id)
		if *update {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: reading golden (run with -update to create): %v", id, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: CSV output diverged from golden %s (regenerate with -update if intended):\n got:\n%s\nwant:\n%s",
				id, path, got, want)
		}
	}
}

// TestGoldenIdentityUnderLevers renders every golden experiment with the
// fleet backend and with the event-driven fast path off: both are
// wall-clock levers only, so each must reproduce the golden byte for byte.
func TestGoldenIdentityUnderLevers(t *testing.T) {
	if *update {
		t.Skip("goldens are being rewritten")
	}
	for _, lever := range []struct {
		name string
		opts Options
	}{
		{"fleet", Options{Quick: true, Seed: 5, Fleet: true}},
		{"dense", Options{Quick: true, Seed: 5, Dense: true}},
	} {
		for _, id := range goldenIDs() {
			want, err := os.ReadFile(goldenPath(id))
			if err != nil {
				t.Fatalf("%s: reading golden: %v", id, err)
			}
			if got := renderCSVs(t, id, lever.opts); !bytes.Equal(got, want) {
				t.Errorf("%s under %s: CSV output diverged from golden:\n got:\n%s\nwant:\n%s", id, lever.name, got, want)
			}
		}
	}
}

// TestPairedOptionBitIdentical renders E2 with and without Options.Paired
// and requires byte-identical tables: the paired fleet backend shares
// sequences and judge calls but must never change a number.
func TestPairedOptionBitIdentical(t *testing.T) {
	independent := renderCSVs(t, "e2", Options{Quick: true, Seed: 5})
	paired := renderCSVs(t, "e2", Options{Quick: true, Seed: 5, Paired: true})
	if !bytes.Equal(independent, paired) {
		t.Errorf("Paired option changed results:\nindependent:\n%s\npaired:\n%s", independent, paired)
	}
}

// TestSequentialOptionDisabledTargetBitIdentical: a disabled CI target
// routes through the sequential driver but must reproduce the fixed-N
// tables byte-for-byte. (SeqChunk alone must never matter either.)
func TestSequentialOptionDisabledTargetBitIdentical(t *testing.T) {
	for _, id := range []string{"e1", "e3"} {
		base := renderCSVs(t, id, Options{Quick: true, Seed: 5})
		seq := renderCSVs(t, id, Options{Quick: true, Seed: 5, SeqChunk: 3})
		if !bytes.Equal(base, seq) {
			t.Errorf("%s: SeqChunk with disabled target changed results", id)
		}
	}
}

// TestSequentialTargetStopsEarly: an easy CI target must reduce the seed
// count actually spent (visible in the runs column) without breaking any
// bound check.
func TestSequentialTargetStopsEarly(t *testing.T) {
	e, found := ByID("e1")
	if !found {
		t.Fatal("e1 missing")
	}
	tablesFull, err := e.Run(Options{Quick: true, Seed: 5})
	if err != nil {
		t.Fatalf("full: %v", err)
	}
	tablesSeq, err := e.Run(Options{Quick: true, Seed: 5,
		CITarget: stats.Target{AbsWidth: 0.6, MinSamples: 2}, SeqChunk: 2})
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	var bf, bs bytes.Buffer
	tablesFull[0].RenderCSV(&bf)
	tablesSeq[0].RenderCSV(&bs)
	if bf.String() == bs.String() {
		t.Error("an AbsWidth=0.6 target should stop at least one estimation early, but tables are identical")
	}
	// Bound checks must survive sequential stopping.
	if bytes.Contains(bs.Bytes(), []byte("VIOLATED")) {
		t.Errorf("sequential run reports a bound violation:\n%s", bs.String())
	}
}
