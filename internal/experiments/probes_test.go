package experiments

import (
	"bytes"
	"testing"

	"qswitch/internal/obs"
	"qswitch/internal/obs/wire"
	"qswitch/internal/shard"
	"qswitch/internal/stats"
)

// renderAll renders every table of an experiment run as CSV bytes — the
// byte-level surface the neutrality suite compares.
func renderAll(t *testing.T, e Experiment, opts Options) string {
	t.Helper()
	tables, err := e.Run(opts)
	if err != nil {
		t.Fatalf("%s: %v", e.ID, err)
	}
	var buf bytes.Buffer
	for _, tb := range tables {
		tb.RenderCSV(&buf)
	}
	return buf.String()
}

// TestProbesDecisionNeutral is the observability layer's core guarantee:
// installing the probes changes NO experiment output, on any ratio
// backend. Each backend variant runs E1 once with probes uninstalled and
// once with the full probe set live, and the rendered CSV bytes must be
// identical — while the probe counters must actually have moved, proving
// the instrumented paths ran.
func TestProbesDecisionNeutral(t *testing.T) {
	e, ok := ByID("e1")
	if !ok {
		t.Fatal("e1 missing")
	}
	localShard := func(t *testing.T) *shard.Coordinator {
		t.Helper()
		c, err := shard.NewCoordinator(shard.CoordinatorOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	base := Options{Quick: true, Seed: 5}
	variants := []struct {
		name string
		opts func(t *testing.T) Options
	}{
		{"scalar", func(t *testing.T) Options { return base }},
		{"fleet", func(t *testing.T) Options { o := base; o.Fleet = true; return o }},
		{"shard", func(t *testing.T) Options { o := base; o.Shard = localShard(t); return o }},
		{"sequential", func(t *testing.T) Options {
			o := base
			o.CITarget = stats.Target{AbsWidth: 0.02, Confidence: 0.95}
			return o
		}},
		{"sequential-fleet", func(t *testing.T) Options {
			o := base
			o.Fleet = true
			o.CITarget = stats.Target{AbsWidth: 0.02, Confidence: 0.95}
			return o
		}},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			off := renderAll(t, e, v.opts(t))

			reg := obs.NewRegistry()
			wire.Up(reg)
			defer wire.Down()
			before := reg.Snapshot()
			opts := v.opts(t)
			opts.Probes = reg
			on := renderAll(t, e, opts)

			if on != off {
				t.Errorf("probes changed %s output:\nprobes off:\n%s\nprobes on:\n%s", v.name, off, on)
			}
			delta := obs.DiffSnapshot(before, reg.Snapshot())
			// Kernel-batched instances count in the fleet probes instead of
			// the engine probes, and quick-mode E1 uses the exact judges.
			if delta[obs.MetricEngineRuns] == 0 && delta[obs.MetricFleetKernel] == 0 {
				t.Errorf("neither engine nor fleet probes fired; delta: %v", delta)
			}
			if delta[obs.MetricJudgeSolves] == 0 && delta[obs.MetricJudgeExactSolves] == 0 {
				t.Errorf("judge probes never fired; delta: %v", delta)
			}
			switch v.name {
			case "fleet", "sequential-fleet":
				if delta[obs.MetricFleetKernel] == 0 && delta[obs.MetricFleetFallback] == 0 {
					t.Errorf("fleet probes never fired; delta: %v", delta)
				}
			case "sequential":
				if delta[obs.MetricSeqChunks] == 0 {
					t.Errorf("sequential probes never fired; delta: %v", delta)
				}
			}
		})
	}
}

// TestProbeSnapshotNilSafe pins the Options accessor contract: without a
// registry, ProbeSnapshot returns nil and costs nothing.
func TestProbeSnapshotNilSafe(t *testing.T) {
	if snap := (Options{}).ProbeSnapshot(); snap != nil {
		t.Fatalf("ProbeSnapshot without registry = %v, want nil", snap)
	}
}
