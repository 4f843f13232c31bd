package wire

import (
	"flag"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"qswitch/internal/core"
	"qswitch/internal/obs"
	"qswitch/internal/packet"
	"qswitch/internal/switchsim"
)

// routedRun is one switchsim.RunCIOQ of GM on a 4×4 switch: a policy and
// geometry the fleet's kernel takes, so the run moves both the engine and
// the fleet probes.
func routedRun(t *testing.T) {
	t.Helper()
	cfg := switchsim.Config{Inputs: 4, Outputs: 4, InputBuf: 2, OutputBuf: 2, Speedup: 1}
	seq := packet.Bernoulli{Load: 0.8}.Generate(rand.New(rand.NewSource(1)), 4, 4, 20)
	if _, err := switchsim.RunCIOQ(cfg, &core.GM{}, seq); err != nil {
		t.Fatal(err)
	}
}

// TestUpDownRouteProbes: Up points the engine and fleet probes at the
// registry, so a routed run moves the engine's run counter and the
// fleet's kernel counter by one each; after Down a run moves nothing.
func TestUpDownRouteProbes(t *testing.T) {
	reg := obs.NewRegistry()
	Up(reg)
	defer Down()
	routedRun(t)
	snap := reg.Snapshot()
	for _, name := range []string{obs.MetricEngineRuns, obs.MetricFleetKernel} {
		if snap[name] != 1 {
			t.Errorf("after one routed run under Up, %s = %v, want 1", name, snap[name])
		}
	}
	Down()
	routedRun(t)
	after := reg.Snapshot()
	for name, v := range after {
		if v != snap[name] {
			t.Errorf("a run after Down moved %s from %v to %v", name, snap[name], v)
		}
	}
}

// TestFlagsRegistersSurface: Flags registers the shared flag surface,
// with the execution-trace flag under the name the caller gives, and the
// CLI fields read the parsed values.
func TestFlagsRegistersSurface(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := Flags(fs, "exectrace")
	for _, name := range []string{"progress", "metrics-addr", "cpuprofile", "memprofile", "exectrace"} {
		if fs.Lookup(name) == nil {
			t.Errorf("flag -%s not registered", name)
		}
	}
	if fs.Lookup("trace") != nil {
		t.Error("-trace registered although the trace flag was named exectrace")
	}
	args := []string{"-progress", "-metrics-addr", "127.0.0.1:0", "-cpuprofile", "c", "-memprofile", "m", "-exectrace", "x"}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if !*c.Progress || *c.MetricsAddr != "127.0.0.1:0" || *c.CPUProfile != "c" || *c.MemProfile != "m" || *c.Trace != "x" {
		t.Errorf("parsed CLI = progress %v, addr %q, cpu %q, mem %q, trace %q",
			*c.Progress, *c.MetricsAddr, *c.CPUProfile, *c.MemProfile, *c.Trace)
	}
}

// parsed returns the CLI for args.
func parsed(t *testing.T, args ...string) *CLI {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := Flags(fs, "trace")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestStartServesMetrics: with -metrics-addr, Start serves /metrics from
// the session's registry, which Up wired in, until Close.
func TestStartServesMetrics(t *testing.T) {
	s, err := parsed(t, "-metrics-addr", "127.0.0.1:0").Start()
	defer Down()
	if err != nil {
		t.Fatal(err)
	}
	routedRun(t)
	url := "http://" + s.server.Addr() + "/metrics"
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), obs.MetricEngineRuns+" 1") {
		t.Errorf("GET /metrics: status %d, body without %q:\n%s", resp.StatusCode, obs.MetricEngineRuns+" 1", body)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if resp, err := http.Get(url); err == nil {
		resp.Body.Close()
		t.Error("/metrics still served after Close")
	}
}

// TestStartWritesProfiles: the profile flags produce their files by
// Close, and a forced progress line runs alongside without error.
func TestStartWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem, tr := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof"), filepath.Join(dir, "exec.trace")
	s, err := parsed(t, "-progress", "-cpuprofile", cpu, "-memprofile", mem, "-trace", tr).Start()
	defer Down()
	if err != nil {
		t.Fatal(err)
	}
	routedRun(t)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem, tr} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s: not written (%v)", path, err)
		}
	}
}

// TestStartUnwritableProfile: a -cpuprofile path that cannot be created
// fails Start, which still returns a session; its Close is safe, and the
// endpoint Start had opened is closed. A nil session closes too.
func TestStartUnwritableProfile(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "missing", "cpu.prof")
	s, err := parsed(t, "-metrics-addr", "127.0.0.1:0", "-cpuprofile", bad).Start()
	defer Down()
	if err == nil {
		t.Fatal("Start with an unwritable -cpuprofile succeeded")
	}
	if s == nil {
		t.Fatal("Start returned no session with its error")
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close after a failed Start: %v", err)
	}
	if resp, err := http.Get("http://" + s.server.Addr() + "/metrics"); err == nil {
		resp.Body.Close()
		t.Error("/metrics still served after a failed Start")
	}
	var none *Session
	if err := none.Close(); err != nil {
		t.Errorf("Close on a nil session: %v", err)
	}
}
