package ratio

import (
	"sync/atomic"

	"qswitch/internal/obs"
)

// seqProbes is the process-wide observability receiver for estimation.
// The driver flushes once per folded chunk — the same cadence as its
// stopping decisions — on every entry point, so probes add nothing to the
// per-seed path and a nil bundle degrades to one branch per chunk.
var seqProbes atomic.Pointer[obs.SeqProbes]

// SetProbes installs (or, with nil, removes) the estimation probe
// bundle. Probes only observe: estimates and stopping decisions
// are bit-identical with probes on or off.
func SetProbes(p *obs.SeqProbes) { seqProbes.Store(p) }
