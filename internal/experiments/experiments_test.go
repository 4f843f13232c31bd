package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	exps := All()
	if len(exps) != 16 {
		t.Fatalf("registry has %d experiments, want 16", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if e.ID == "" || e.Title == "" || e.Claim == "" || e.Run == nil {
			t.Errorf("experiment %q incomplete", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate id %q", e.ID)
		}
		seen[e.ID] = true
	}
	if _, ok := ByID("e1"); !ok {
		t.Error("e1 not found")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("bogus id found")
	}
}

// TestAllExperimentsRunQuick executes every experiment in quick mode and
// sanity-checks the produced tables. This is the end-to-end test of the
// whole reproduction pipeline.
func TestAllExperimentsRunQuick(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables, err := e.Run(Options{Quick: true, Seed: 12345})
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", e.ID)
			}
			for _, tb := range tables {
				if len(tb.Rows) == 0 {
					t.Errorf("%s: table %q empty", e.ID, tb.Title)
				}
				var buf bytes.Buffer
				tb.Render(&buf)
				if buf.Len() == 0 {
					t.Errorf("%s: table %q rendered empty", e.ID, tb.Title)
				}
			}
		})
	}
}

// TestBoundExperimentsReportNoViolations scans the ratio experiments'
// "within" columns: a VIOLATED cell means a measured competitive ratio
// exceeded a proven bound, i.e. a bug in simulator, policy or optimum.
func TestBoundExperimentsReportNoViolations(t *testing.T) {
	for _, id := range []string{"e1", "e2", "e3", "e4", "e8"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		tables, err := e.Run(Options{Quick: true, Seed: 999})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, tb := range tables {
			var buf bytes.Buffer
			tb.Render(&buf)
			if strings.Contains(buf.String(), "VIOLATED") {
				t.Errorf("%s: bound violation reported:\n%s", id, buf.String())
			}
		}
	}
}

func TestExperimentsDeterministic(t *testing.T) {
	e, _ := ByID("e1")
	a, err := e.Run(Options{Quick: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Run(Options{Quick: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var ba, bb bytes.Buffer
	for _, tb := range a {
		tb.RenderCSV(&ba)
	}
	for _, tb := range b {
		tb.RenderCSV(&bb)
	}
	if ba.String() != bb.String() {
		t.Error("e1 not deterministic across runs with the same seed")
	}
}

// TestFleetOptionBitIdentical renders the ratio experiments with and
// without Options.Fleet and requires byte-identical tables: the columnar
// batched backend must change wall-clock only, never a number.
func TestFleetOptionBitIdentical(t *testing.T) {
	for _, id := range []string{"e1", "e2", "e3", "e4"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %s missing", id)
		}
		scalar, err := e.Run(Options{Quick: true, Seed: 5})
		if err != nil {
			t.Fatalf("%s scalar: %v", id, err)
		}
		fleet, err := e.Run(Options{Quick: true, Seed: 5, Fleet: true})
		if err != nil {
			t.Fatalf("%s fleet: %v", id, err)
		}
		var bs, bf bytes.Buffer
		for _, tb := range scalar {
			tb.RenderCSV(&bs)
		}
		for _, tb := range fleet {
			tb.RenderCSV(&bf)
		}
		if bs.String() != bf.String() {
			t.Errorf("%s: Fleet option changed results:\nscalar:\n%s\nfleet:\n%s", id, bs.String(), bf.String())
		}
	}
}
