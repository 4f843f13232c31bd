package flow

import (
	"testing"

	"qswitch/internal/testkit"
)

// TestFlowIsTestOnly keeps this package a reference oracle: no non-test
// file outside internal/testkit may import it, so the solver links into
// no binary.
func TestFlowIsTestOnly(t *testing.T) {
	testkit.CheckTestOnly(t, "qswitch/internal/testkit/flow")
}
