package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strings"
	"testing"
	"time"
)

func TestRegistryMetrics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("test_ops_total") != c {
		t.Fatal("same name should return the same counter")
	}

	g := r.Gauge("test_depth")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}

	fg := r.FloatGauge("test_ratio")
	fg.Set(1.25)
	if got := fg.Value(); got != 1.25 {
		t.Fatalf("float gauge = %v, want 1.25", got)
	}

	h := r.Histogram("test_seconds", 0.1, 1, 10)
	for _, v := range []float64{0.05, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("histogram count = %d, want 4", h.Count())
	}
	if math.Abs(h.Sum()-55.55) > 1e-9 {
		t.Fatalf("histogram sum = %v, want 55.55", h.Sum())
	}

	snap := r.Snapshot()
	want := map[string]float64{
		"test_ops_total":     5,
		"test_depth":         5,
		"test_ratio":         1.25,
		"test_seconds_count": 4,
		"test_seconds_sum":   55.55,
	}
	for k, v := range want {
		if math.Abs(snap[k]-v) > 1e-9 {
			t.Errorf("snapshot[%q] = %v, want %v", k, snap[k], v)
		}
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_dual")
	defer func() {
		if recover() == nil {
			t.Fatal("registering test_dual as a gauge after a counter should panic")
		}
	}()
	r.Gauge("test_dual")
}

func TestNilRegistryAndMetricsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total")
	g := r.Gauge("x")
	fg := r.FloatGauge("x_f")
	h := r.Histogram("x_seconds", 1)
	if c != nil || g != nil || fg != nil || h != nil {
		t.Fatal("nil registry should hand out nil metrics")
	}
	// All of these must be safe no-ops on nil receivers: this is the
	// probes-disabled hot path.
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	fg.Set(2)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || fg.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil metrics should read zero")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot should be nil")
	}
	if err := r.WritePrometheus(io.Discard); err != nil {
		t.Fatalf("nil WritePrometheus: %v", err)
	}
	var p *EngineProbes
	p.RecordRun(1, 1, 1)
	var fp *FleetProbes
	fp.RecordKernel(1, 1, 1)
	fp.RecordFallback(1)
	var jp *JudgeProbes
	jp.RecordSolve(1, 1)
	jp.RecordExactSolve()
	var sp *SeqProbes
	sp.StartRun(1, 0.1)
	sp.RecordChunk(time.Millisecond, 1, 1, 0.5)
}

func TestDiffSnapshot(t *testing.T) {
	before := map[string]float64{"a": 1, "b": 2}
	after := map[string]float64{"a": 4, "b": 2, "c": 7}
	got := DiffSnapshot(before, after)
	if len(got) != 2 || got["a"] != 3 || got["c"] != 7 {
		t.Fatalf("DiffSnapshot = %v, want map[a:3 c:7]", got)
	}
}

func TestWriteVars(t *testing.T) {
	r := NewRegistry()
	r.Counter("v_ops_total").Add(2)
	var buf bytes.Buffer
	if err := r.WriteVars(&buf); err != nil {
		t.Fatal(err)
	}
	var vars map[string]float64
	if err := json.Unmarshal(buf.Bytes(), &vars); err != nil {
		t.Fatalf("WriteVars output is not JSON: %v\n%s", err, buf.String())
	}
	if vars["v_ops_total"] != 2 {
		t.Fatalf("vars = %v", vars)
	}
}

func TestProbeBundles(t *testing.T) {
	r := NewRegistry()
	NewEngineProbes(r).RecordRun(100, 80, 5)
	NewFleetProbes(r).RecordKernel(64, 6400, 300)
	NewFleetProbes(r).RecordFallback(3)
	NewJudgeProbes(r).RecordSolve(20, 4)
	NewJudgeProbes(r).RecordExactSolve()
	sp := NewSeqProbes(r)
	sp.StartRun(4096, 0.05)
	sp.RecordChunk(2*time.Millisecond, 64, 64, 0.2)

	snap := r.Snapshot()
	want := map[string]float64{
		MetricEngineRuns:        1,
		MetricEngineSlots:       100,
		MetricEngineDenseSlots:  20,
		MetricEngineJumpedSlots: 80,
		MetricEngineJumps:       5,
		MetricFleetBatches:      2,
		MetricFleetKernel:       64,
		MetricFleetFallback:     3,
		MetricFleetSlots:        6400,
		MetricFleetPassThrough:  300,
		MetricJudgeSolves:       1,
		MetricJudgePackets:      20,
		MetricJudgeEpochs:       4,
		MetricJudgeExactSolves:  1,
		MetricSeqRuns:           1,
		MetricSeqChunks:         1,
		MetricSeqSeedsTotal:     64,
		MetricSeqSeeds:          64,
		MetricSeqBudget:         4096,
		MetricSeqHalfWidth:      0.2,
		MetricSeqTarget:         0.05,
	}
	for k, v := range want {
		if snap[k] != v {
			t.Errorf("snapshot[%q] = %v, want %v", k, snap[k], v)
		}
	}
}

func TestProgressLine(t *testing.T) {
	prev := map[string]float64{MetricSeqSeeds: 0, MetricSeqSeedsTotal: 0}
	cur := map[string]float64{
		MetricSeqSeeds: 640, MetricSeqSeedsTotal: 640, MetricSeqBudget: 4096,
		MetricSeqHalfWidth: 0.08, MetricSeqTarget: 0.05, MetricSeqRuns: 1,
	}
	line := progressLine(prev, cur, time.Second)
	for _, want := range []string{"640", "4096", "0.08"} {
		if !strings.Contains(line, want) {
			t.Errorf("progress line %q should mention %s", line, want)
		}
	}
	if line == "" {
		t.Fatal("progress line empty with active sequential run")
	}
}

func TestProgressETA(t *testing.T) {
	// Halving the half-width needs 4x the seeds: from 640 seeds at
	// hw=0.10 toward target 0.05 needs ~2560 total, 1920 more at 640
	// seeds/s => ~3s.
	eta, ok := progressETA(640, 4096, 0.10, 0.05, 640)
	if !ok {
		t.Fatal("ETA should be computable")
	}
	if eta < 2*time.Second || eta > 4*time.Second {
		t.Fatalf("eta = %v, want ~3s", eta)
	}
	// No usable half-width or target: fall back to the seed budget,
	// (4096-640)/640 ≈ 5.4s.
	eta, ok = progressETA(640, 4096, 0, 0.05, 640)
	if !ok || eta < 5*time.Second || eta > 6*time.Second {
		t.Fatalf("budget eta = %v ok=%v, want ~5.4s", eta, ok)
	}
	if _, ok := progressETA(640, 4096, 0.1, 0.05, 0); ok {
		t.Fatal("zero seed rate should not produce an ETA")
	}
	if _, ok := progressETA(1, 4096, 0.1, 0.05, 640); ok {
		t.Fatal("a single seed should not produce an ETA")
	}
}

func TestHumanRate(t *testing.T) {
	cases := map[float64]string{
		3:         "3",
		45000:     "45.0k",
		2_000_000: "2.0M",
	}
	for v, want := range cases {
		if got := humanRate(v); !strings.HasPrefix(got, want) {
			t.Errorf("humanRate(%v) = %q, want prefix %q", v, got, want)
		}
	}
}
