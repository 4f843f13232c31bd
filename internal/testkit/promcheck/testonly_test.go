package promcheck

import (
	"testing"

	"qswitch/internal/testkit"
)

// TestPromcheckIsTestOnly keeps this package a test validator: no
// non-test file outside internal/testkit may import it, so the parser
// links into no binary.
func TestPromcheckIsTestOnly(t *testing.T) {
	testkit.CheckTestOnly(t, "qswitch/internal/testkit/promcheck")
}
