package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestChecker runs the checker over testdata/mod, a module with one
// function of each kind: linked from a command, linked only through a
// facade alias, generic, taken as a method value, allow-listed, and
// unlinked. Only the unlinked one may be reported, whatever the allow
// list says about the rest.
func TestChecker(t *testing.T) {
	const unlinked = "internal/lib/lib.go:10: Unlinked\n"
	for _, tc := range []struct {
		name, allow string
		code        int
		stdout      string
		stderr      string
	}{
		{"allowed", "internal/lib/lib.go:Allowed  kept for the test\n", 1, unlinked, ""},
		{"comments and blank lines", "# header\n\ninternal/lib/lib.go:Allowed  kept # trailing\n", 1, unlinked, ""},
		{"empty list", "", 1, "internal/lib/lib.go:10: Unlinked\ninternal/lib/lib.go:13: Allowed\n", ""},
		{"both allowed", "internal/lib/lib.go:Allowed  kept\ninternal/lib/lib.go:Unlinked  kept too\n", 0, "", ""},
		{"file prefix", "internal/lib/lib.go:  the whole file\n", 0, "", ""},
		{"directory prefix", "internal/  every package\n", 0, "", ""},
		{"no prefix match without a separator", "internal/lib/lib.go:Allow  not a prefix pattern\n", 1,
			"internal/lib/lib.go:10: Unlinked\ninternal/lib/lib.go:13: Allowed\nALLOW:1: internal/lib/lib.go:Allow matches no unlinked function\n", ""},
		{"stale line", "internal/lib/lib.go:Allowed  kept\ninternal/lib/lib.go:Linked  linked already\n", 1,
			unlinked + "ALLOW:2: internal/lib/lib.go:Linked matches no unlinked function\n", ""},
		{"no reason", "internal/lib/lib.go:Allowed\n", 2, "", "ALLOW:1: internal/lib/lib.go:Allowed has no reason"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			allow := filepath.Join(t.TempDir(), "linked.allow")
			if err := os.WriteFile(allow, []byte(tc.allow), 0o644); err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			code := run([]string{"-allow", allow, filepath.Join("testdata", "mod")}, &stdout, &stderr)
			wantOut := strings.ReplaceAll(tc.stdout, "ALLOW", allow)
			if code != tc.code || stdout.String() != wantOut {
				t.Errorf("exit %d, stdout:\n%s\nwant exit %d, stdout:\n%s\nstderr: %s", code, stdout.String(), tc.code, wantOut, stderr.String())
			}
			if want := strings.ReplaceAll(tc.stderr, "ALLOW", allow); !strings.Contains(stderr.String(), want) {
				t.Errorf("stderr %q does not contain %q", stderr.String(), want)
			}
		})
	}
}

func TestNormSym(t *testing.T) {
	for in, want := range map[string]string{
		"p/q.F":                 "p/q.F",
		"p/q.(*T).M":            "p/q.T.M",
		"p/q.T.M":               "p/q.T.M",
		"p/q.Max[go.shape.int]": "p/q.Max",
		"p/q.(*Set[go.shape.struct { X [2]int }]).Add": "p/q.Set.Add",
		"p/q.(*T).M-fm": "p/q.T.M-fm",
	} {
		if got := normSym(in); got != want {
			t.Errorf("normSym(%q) = %q, want %q", in, got, want)
		}
	}
}
