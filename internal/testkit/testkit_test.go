package testkit

import "testing"

// TestTestkitIsTestOnly keeps testkit out of every binary: no non-test
// file outside internal/testkit may import it or any of its subpackages.
func TestTestkitIsTestOnly(t *testing.T) {
	CheckTestOnly(t, "qswitch/internal/testkit")
}
