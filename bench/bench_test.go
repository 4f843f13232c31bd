package main

import (
	"bytes"
	"io"
	"os"
	"regexp"
	"testing"

	"qswitch"
	"qswitch/internal/obs"
)

// TestMain lets the test binary stand in for the bench binary as a shard
// worker: sharded_service self-execs os.Args[0] with -worker.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-worker" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func smokeConfig(t *testing.T, workload string) runConfig {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	return runConfig{
		workload: workload, seed: goldenSeed, trace: true, smoke: true,
		dir: t.TempDir(), self: []string{exe, "-worker"}, golden: golden,
	}
}

// TestManifest holds BENCHMARK.json to the tables in metrics.go and
// workload.go, and the tables to the driver's limits.
func TestManifest(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from `bench -manifest`; regenerate it")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, tab := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range tab {
			if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] {
				t.Errorf("metric %q (unit %q): bad or repeated name, or bad unit", d.Name, d.Unit)
			}
			if d.Better != "lower" && d.Better != "higher" || d.Bound < 0 || d.Bound > 0.25 {
				t.Errorf("metric %q: better %q, bound %v", d.Name, d.Better, d.Bound)
			}
			seen[d.Name] = true
		}
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the driver takes 128", len(perLayer))
	}
	for _, w := range workloads {
		if !name.MatchString(w.name) || seen[w.name] || len(w.why) > 200 {
			t.Errorf("workload %q: bad or repeated name, or a why of %d characters", w.name, len(w.why))
		}
		seen[w.name] = true
	}
}

// TestSuiteSmoke runs every workload end to end at smoke scale, traced:
// bare, traced and probed passes all reproduce the golden (so the traced
// paper_tables service renders byte-identical tables and no decorator
// changes a statistic), the spans are well formed, and between them the
// runs emit exactly the metrics the tables declare.
func TestSuiteSmoke(t *testing.T) {
	emitted := map[string]bool{}
	for name := range kernelMetrics(goldenSeed) {
		emitted[name] = true
	}
	for _, wl := range workloads {
		name := wl.name
		cfg := smokeConfig(t, name)
		m, err := measure(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		attempted, failed, failures := m.verify(cfg)
		if attempted == 0 || failed != 0 {
			t.Errorf("%s: %d of %d operations failed: %v", name, failed, attempted, failures)
		}
		layers, err := m.layerMetrics()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for metric := range layers {
			if emitted[metric] {
				t.Errorf("%s emits %s, which something else emitted already", name, metric)
			}
			emitted[metric] = true
		}
		ix := m.tr.index()
		for _, s := range ix.spans {
			if s.Workload != name || s.Pass < 1 || ix.self(s) < 0 {
				t.Errorf("%s: malformed span %+v", name, *s)
			}
		}
		e2e := m.endToEndMetrics()
		for _, d := range endToEnd {
			if s, ok := e2e[d.Name]; !ok || s.Value <= 0 || s.Unit != d.Unit {
				t.Errorf("%s: end-to-end metric %s = %+v", name, d.Name, s)
			}
		}
		if len(e2e) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics, want %d", name, len(e2e), len(endToEnd))
		}

		// A deliberately corrupted golden fails the cell's operations.
		bad := goldenSet{"smoke": {name: {}}}
		for cell, text := range cfg.golden["smoke"][name] {
			bad["smoke"][name][cell] = text
		}
		bad["smoke"][name][m.ref.cells[0].Name] += " corrupted"
		cfg.golden = bad
		if _, failed, _ := m.verify(cfg); failed == 0 {
			t.Errorf("%s: a corrupted golden failed no operation", name)
		}
		if err := m.w.close(); err != nil {
			t.Errorf("%s: close: %v", name, err)
		}
	}
	for _, d := range perLayer {
		if !emitted[d.Name] {
			t.Errorf("declared per-layer metric %s is never emitted", d.Name)
		}
		delete(emitted, d.Name)
	}
	for name := range emitted {
		t.Errorf("emitted per-layer metric %s is not declared", name)
	}
}

// TestDecoratorsKeepFastPath checks that the policy and stream decorators
// do not knock runs off the event-driven path: a traced pass of
// sparse_stream jumps exactly the slots a bare pass jumps.
func TestDecoratorsKeepFastPath(t *testing.T) {
	cfg := smokeConfig(t, "sparse_stream")
	w, err := newWorkload(cfg.workload)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	if err := w.setup(&env{seed: cfg.seed, smoke: true, dir: cfg.dir, self: cfg.self}); err != nil {
		t.Fatal(err)
	}
	jumps := func(tr *tracer) (jumped, jumps float64) {
		reg, stop := qswitch.EnableObservability()
		defer stop()
		kind := "bare"
		if tr != nil {
			kind = "traced"
		}
		runPass(w, kind, 0, tr, nil)
		snap := reg.Snapshot()
		return snap[obs.MetricEngineJumpedSlots], snap[obs.MetricEngineJumps]
	}
	bareSlots, bareJumps := jumps(nil)
	tracedSlots, tracedJumps := jumps(newTracer(cfg.workload))
	if bareSlots == 0 || bareSlots != tracedSlots || bareJumps != tracedJumps {
		t.Errorf("bare pass jumped %v slots in %v jumps, traced pass %v in %v", bareSlots, bareJumps, tracedSlots, tracedJumps)
	}
}

// TestVerifyRounds checks what a cell is held to when its inputs are the
// round's own: the first pass of the same round, not the warm-up pass.
func TestVerifyRounds(t *testing.T) {
	cell := func(round int, stats string) []cellResult {
		return []cellResult{{Name: "c", Round: round, Stats: stats, Ops: 1}}
	}
	m := &measured{ref: passRecord{cells: cell(0, "a")}, passes: []passRecord{
		{kind: "bare", cells: cell(0, "a")}, {kind: "traced", cells: cell(0, "a")},
		{kind: "bare", cells: cell(1, "b")}, {kind: "traced", cells: cell(1, "b")},
	}}
	if attempted, failed, failures := m.verify(runConfig{workload: "w"}); attempted != 4 || failed != 0 {
		t.Errorf("%d of %d operations failed: %v", failed, attempted, failures)
	}
	m.passes[3].cells[0].Stats = "a" // round 1 traced no longer reproduces round 1 bare
	if _, failed, _ := m.verify(runConfig{workload: "w"}); failed != 4 {
		t.Errorf("a traced pass that differs from the bare pass of its round failed %d operations, want 4", failed)
	}
}

// TestDriverRecord checks the shape of a -workload run's output: two lines,
// the last holding exactly the driver's keys.
func TestDriverRecord(t *testing.T) {
	rec := &runRecord{Workload: "w", Correct: true, Attempted: 3, Metrics: map[string]summary{
		"wall_s": {Value: 1.5, Unit: "s", N: 3, Min: 1, Max: 2},
	}}
	var buf bytes.Buffer
	if err := printRecords(&buf, rec); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	want := `{"correct":true,"attempted":3,"failed":0,"metrics":{"wall_s":{"value":1.5,"unit":"s"}}}`
	if len(lines) != 2 || string(lines[1]) != want {
		t.Errorf("got %s, want last line %s", buf.Bytes(), want)
	}
}

// TestCompare exercises the verdicts of -compare on hand-made summaries.
func TestCompare(t *testing.T) {
	wall := metricDef{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.10}
	steady := func(v float64) summary {
		return summary{Value: v, Q1: v * 0.99, Q3: v * 1.01, Min: v * 0.98, Max: v * 1.02}
	}
	noisy := func(v float64) summary {
		return summary{Value: v, Q1: v * 0.9, Q3: v * 1.1, Min: v * 0.8, Max: v * 1.2}
	}
	for _, c := range []struct {
		old, cur summary
		want     string
	}{
		{steady(1), steady(1.05), unchanged},
		{steady(1), steady(1.2), regressed},
		{steady(1), steady(0.8), improved},
		{steady(1), noisy(1), unresolved},
		{noisy(1), steady(0.5), improved}, // every new run beats every old one
	} {
		if got := judge(wall, c.old, c.cur); got != c.want {
			t.Errorf("judge(%v -> %v) = %s, want %s", c.old.Value, c.cur.Value, got, c.want)
		}
	}
	old := &suiteRecord{Runs: []*runRecord{{Workload: "w", Attempted: 10, Metrics: map[string]summary{"wall_s": steady(1)}}}}
	cur := &suiteRecord{Runs: []*runRecord{{Workload: "w", Attempted: 10, Failed: 1, Metrics: map[string]summary{"wall_s": steady(1)}}}}
	if regressions, _ := compareSuites(old, cur, io.Discard); regressions != 1 {
		t.Errorf("a larger failed-operation share counted as %d regressions, want 1", regressions)
	}
}

// TestQuartiles pins the quartile rule to Python's statistics.quantiles.
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v %v %v, want 1 2 4", q1, q2, q3)
	}
}
