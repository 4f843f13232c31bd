package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qswitch/internal/core"
	"qswitch/internal/ratio"
	"qswitch/internal/shard"
	"qswitch/internal/stats"
	"qswitch/internal/switchsim"
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

// refChunks is a ratio.ChunkService that evaluates E1–E4's chunks on the
// scalar backend with every policy wrapped (struct{ *core.GM }). The
// wrapper hides the concrete type switchsim's kernel lookup matches on,
// so each run takes the reference slot loop, not the columnar kernel this
// test binary links in. It knows the four families E1–E4 estimate.
type refChunks struct{ calls *atomic.Int64 }

func (s refChunks) RatioChunk(ctx context.Context, req ratio.ChunkRequest) ([]ratio.SeedOutcome, error) {
	name, p, err := core.ParseSpec(req.Policy)
	if err != nil {
		return nil, err
	}
	var alg ratio.Alg
	switch name {
	case "gm":
		alg = ratio.CIOQAlg(func() switchsim.CIOQPolicy { return struct{ *core.GM }{&core.GM{}} })
	case "pg":
		alg = ratio.CIOQAlg(func() switchsim.CIOQPolicy { return struct{ *core.PG }{&core.PG{Beta: p["beta"]}} })
	case "cgu":
		alg = ratio.CrossbarAlg(func() switchsim.CrossbarPolicy { return struct{ *core.CGU }{&core.CGU{}} })
	case "cpg":
		alg = ratio.CrossbarAlg(func() switchsim.CrossbarPolicy {
			return struct{ *core.CPG }{&core.CPG{Beta: p["beta"], Alpha: p["alpha"]}}
		})
	default:
		return nil, fmt.Errorf("refChunks: no reference for policy %q", req.Policy)
	}
	judge, err := shard.ResolveJudge(req.Judge, req.Crossbar)
	if err != nil {
		return nil, err
	}
	s.calls.Add(1)
	return ratio.ScalarChunks(req.Cfg, alg, judge, req.Gen, req.BaseSeed)(ctx, req.K0, req.K1)
}

// TestFleetOptionBitIdentical renders the ratio experiments on the
// reference slot loop (through refChunks) and on the default in-process
// fleet evaluator, and requires byte-identical tables: the columnar
// kernels, at batch one under switchsim.RunCIOQ/RunCrossbar and batched in
// the fleet, change wall-clock only, never a number. Full mode (about
// 0.1 s for both) because quick E2's and E4's tables do not change when
// the seeds shift or PG's beta moves by one.
func TestFleetOptionBitIdentical(t *testing.T) {
	render := func(tables []*stats.Table) string {
		var b bytes.Buffer
		for _, tb := range tables {
			tb.RenderCSV(&b)
		}
		return b.String()
	}
	for _, id := range []string{"e1", "e2", "e3", "e4"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %s missing", id)
		}
		var calls atomic.Int64
		ref, err := e.Run(Options{Seed: 5, Shard: refChunks{&calls}})
		if err != nil {
			t.Fatalf("%s reference: %v", id, err)
		}
		if calls.Load() == 0 {
			t.Fatalf("%s: no estimate ran on the reference loop", id)
		}
		tables, err := e.Run(Options{Seed: 5})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if got, want := render(tables), render(ref); got != want {
			t.Errorf("%s: the fleet evaluator changed results:\nreference loop:\n%s\nfleet:\n%s", id, want, got)
		}
	}
}

// failRows is a ratio.ChunkService that fails every chunk of the rows
// whose base seed is in fail and answers the rest through inner.
type failRows struct {
	inner ratio.ChunkService
	fail  map[int64]bool
}

func (s failRows) RatioChunk(ctx context.Context, req ratio.ChunkRequest) ([]ratio.SeedOutcome, error) {
	if s.fail[req.BaseSeed] {
		return nil, fmt.Errorf("injected failure at base seed %d", req.BaseSeed)
	}
	return s.inner.RatioChunk(ctx, req)
}

// TestEstimateRowsErrorParity: with E1's rows in flight at once, a failed
// row reports the error a serial row loop reports — the lowest failing
// row's, wrapped as before — on a fixed budget (RunSharded, several chunks
// a row) and under a CI target (one chunk at a time).
func TestEstimateRowsErrorParity(t *testing.T) {
	// Quick E1 row i sits at base seed 1000*(i/4) + 100*(i%4): row 1 is
	// seed 100, row 10 seed 2200.
	cases := []struct {
		name string
		fail []int64
		opts Options
		want string
	}{
		{"fixed two rows", []int64{100, 2200}, Options{ShardChunk: 2},
			"e1: shard chunk 0: injected failure at base seed 100"},
		{"fixed later row", []int64{2200}, Options{ShardChunk: 2},
			"e1: shard chunk 0: injected failure at base seed 2200"},
		{"target two rows", []int64{100, 2200}, Options{CITarget: stats.Target{AbsWidth: 1e-9}, SeqChunk: 2},
			"e1: injected failure at base seed 100"},
		{"target later row", []int64{2200}, Options{CITarget: stats.Target{AbsWidth: 1e-9}, SeqChunk: 2},
			"e1: injected failure at base seed 2200"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fail := map[int64]bool{}
			for _, s := range c.fail {
				fail[s] = true
			}
			opts := c.opts
			opts.Quick = true
			opts.Shard = failRows{inner: refChunks{new(atomic.Int64)}, fail: fail}
			_, err := E1GMRatio(opts)
			if err == nil || err.Error() != c.want {
				t.Fatalf("E1 error = %v, want %q", err, c.want)
			}
		})
	}
}

// holdFirstRow is a ratio.ChunkService that holds row 0's first chunk
// until a chunk of another row has arrived, or fails it once wait runs
// out; every other chunk goes to inner.
type holdFirstRow struct {
	inner    ratio.ChunkService
	row0     int64
	wait     time.Duration
	other    chan struct{}
	sawOther *sync.Once
}

func (s holdFirstRow) RatioChunk(ctx context.Context, req ratio.ChunkRequest) ([]ratio.SeedOutcome, error) {
	if req.BaseSeed != s.row0 {
		s.sawOther.Do(func() { close(s.other) })
	} else if req.K0 == 0 {
		select {
		case <-s.other:
		case <-time.After(s.wait):
			return nil, errors.New("no other row's chunk arrived while row 0's first chunk was held: rows ran one after another")
		}
	}
	return s.inner.RatioChunk(ctx, req)
}

// TestEstimateRowsOverlap: E1's rows are in flight together, so a chunk
// of another row reaches the service while row 0's first chunk is still
// outstanding. A serial row loop fails it once the wait, bounded by the
// test deadline, runs out.
func TestEstimateRowsOverlap(t *testing.T) {
	wait := 30 * time.Second
	if d, ok := t.Deadline(); ok {
		wait = min(wait, time.Until(d)/2)
	}
	svc := holdFirstRow{inner: refChunks{new(atomic.Int64)}, row0: 3, wait: wait,
		other: make(chan struct{}), sawOther: new(sync.Once)}
	tables, err := E1GMRatio(Options{Quick: true, Seed: 3, Shard: svc})
	if err != nil {
		t.Fatal(err)
	}
	want, err := E1GMRatio(Options{Quick: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var got, ref bytes.Buffer
	tables[0].RenderCSV(&got)
	want[0].RenderCSV(&ref)
	if got.String() != ref.String() {
		t.Errorf("held-row table differs:\n%s\nwant:\n%s", got.String(), ref.String())
	}
}
