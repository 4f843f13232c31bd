// Package tiny is the facade of the checker's test module.
package tiny

import "tiny/internal/lib"

// Box is public through this alias, so its exported methods are roots.
type Box = lib.Box

// Sum is an exported facade function, so it is a root.
func Sum() int { return lib.Linked() }
