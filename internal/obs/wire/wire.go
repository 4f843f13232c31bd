// Package wire connects the obs metrics core to every instrumented
// layer: Up installs one registry's probe bundles into switchsim, fleet,
// offline and ratio process-wide, Down removes them, and CLI/Session
// give the three CLIs one shared implementation of the
// -progress/-metrics-addr/-cpuprofile/-memprofile/-trace flag surface.
// It lives below cmd/ and the test suites but above the instrumented
// packages, which only ever see their own probe bundle.
package wire

import (
	"flag"
	"fmt"
	"os"
	"time"

	"qswitch/internal/fleet"
	"qswitch/internal/obs"
	"qswitch/internal/offline"
	"qswitch/internal/ratio"
	"qswitch/internal/switchsim"
)

// Up installs probe bundles registered in reg into every instrumented
// in-process layer (switchsim engines, fleet runners, offline judges,
// ratio estimation). Passing a nil registry installs no-op bundles,
// which is equivalent to Down.
func Up(reg *obs.Registry) {
	switchsim.SetProbes(obs.NewEngineProbes(reg))
	fleet.SetProbes(obs.NewFleetProbes(reg))
	offline.SetProbes(obs.NewJudgeProbes(reg))
	ratio.SetProbes(obs.NewSeqProbes(reg))
}

// Down removes all probe bundles, restoring the uninstrumented state.
func Down() {
	switchsim.SetProbes(nil)
	fleet.SetProbes(nil)
	offline.SetProbes(nil)
	ratio.SetProbes(nil)
}

// CLI holds the parsed observability flags (see Flags).
type CLI struct {
	// Progress forces the throttled stderr progress line even when
	// stderr is not a TTY; setting it to nil before Start turns the line
	// off (a shard worker has no foreground run to report on).
	Progress *bool
	// MetricsAddr serves /metrics, /debug/vars and /debug/pprof on this
	// address while the process runs ("" disables).
	MetricsAddr *string
	// CPUProfile, MemProfile and Trace are the profiling output paths
	// ("" disables each).
	CPUProfile *string
	MemProfile *string
	Trace      *string
}

// Flags registers the shared observability flags on fs. traceFlag names
// the execution-trace flag, letting switchsim keep its preexisting -trace
// (trace replay) flag and expose the profiler as -exectrace instead.
func Flags(fs *flag.FlagSet, traceFlag string) *CLI {
	return &CLI{
		Progress:    fs.Bool("progress", false, "force the throttled stderr progress line (default: only when stderr is a TTY)"),
		MetricsAddr: fs.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address while running (e.g. 127.0.0.1:9410)"),
		CPUProfile:  fs.String("cpuprofile", "", "write a pprof CPU profile to this file"),
		MemProfile:  fs.String("memprofile", "", "write a pprof heap profile to this file at exit"),
		Trace:       fs.String(traceFlag, "", "write a runtime execution trace to this file"),
	}
}

// Session is the per-process observability state Start wires up from the
// parsed flags. Close tears everything down in order (progress line,
// endpoint, profiles) and returns any profile-write error.
type Session struct {
	// Reg is the process registry every probe bundle flushes into.
	Reg *obs.Registry

	tracker     *obs.Tracker
	server      *obs.Server
	stopProfile func() error
}

// Start installs probes into a fresh registry and activates whatever the
// flags asked for: the metrics endpoint, the profile captures, and — when
// -progress is set or stderr is a TTY — the progress tracker. It always
// returns a usable session; the error reports endpoint/profile setup
// failures after local cleanup.
func (c *CLI) Start() (*Session, error) {
	reg := obs.NewRegistry()
	Up(reg)
	s := &Session{Reg: reg}
	if *c.MetricsAddr != "" {
		srv, err := obs.StartServer(*c.MetricsAddr, reg)
		if err != nil {
			return s, fmt.Errorf("metrics endpoint: %w", err)
		}
		s.server = srv
		fmt.Fprintf(os.Stderr, "serving metrics on http://%s/metrics\n", srv.Addr())
	}
	stop, err := obs.Profiles{CPU: *c.CPUProfile, Mem: *c.MemProfile, Trace: *c.Trace}.Start()
	if err != nil {
		s.server.Close()
		return s, err
	}
	s.stopProfile = stop
	if c.Progress != nil {
		tty := obs.IsTerminal(os.Stderr)
		if *c.Progress || tty {
			s.tracker = obs.StartTracker(os.Stderr, reg, 500*time.Millisecond, tty)
		}
	}
	return s, nil
}

// Close stops the tracker, endpoint and profile captures. Safe on a nil
// receiver and after a failed Start.
func (s *Session) Close() error {
	if s == nil {
		return nil
	}
	s.tracker.Stop()
	s.server.Close()
	if s.stopProfile != nil {
		return s.stopProfile()
	}
	return nil
}
