// Package lib holds one function of each kind the checker judges.
package lib

import "cmp"

// Linked is called by the facade.
func Linked() int { return 1 }

// Unlinked is called by nothing.
func Unlinked() int { return 2 }

// Allowed is called by nothing, but the allow list keeps it.
func Allowed() int { return 3 }

// Max is generic; the app instantiates it.
func Max[T cmp.Ordered](a, b T) T {
	if a > b {
		return a
	}
	return b
}

// Counter is used through a method value.
type Counter struct{ N int }

// Inc is taken as a method value by the app.
func (c *Counter) Inc() { c.N++ }

// Box is aliased by the facade.
type Box struct{}

// Size is reached only through the facade alias.
func (Box) Size() int { return 4 }
