package switchsim

import (
	"sync/atomic"

	"qswitch/internal/obs"
)

// engineProbes is the process-wide observability receiver for the run
// functions. A run tallies its jumps in plain engine fields and loads the
// bundle once, to flush at a successful return — so the per-slot cost of
// probes is zero and a nil bundle degrades to one predictable branch per
// run. The steppers keep the tallies but never flush: a stepper has no
// end-of-run the bundle's run count could mean.
var engineProbes atomic.Pointer[obs.EngineProbes]

// SetProbes installs (or, with nil, removes) the engine probe bundle.
// Probes only observe: results are bit-identical with probes on or off.
func SetProbes(p *obs.EngineProbes) { engineProbes.Store(p) }
