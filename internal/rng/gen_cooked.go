//go:build ignore

// gen_cooked writes cooked.go: the rngCooked table of rng.go in the
// math/rand source directory named by its argument, under that file's
// license notice.
package main

import (
	"bytes"
	"fmt"
	"go/format"
	"log"
	"os"
	"path/filepath"
)

func main() {
	src, err := os.ReadFile(filepath.Join(os.Args[1], "rng.go"))
	if err != nil {
		log.Fatal(err)
	}
	notice, _, _ := bytes.Cut(src, []byte("\npackage "))
	_, table, ok := bytes.Cut(src, []byte("rngCooked [rngLen]int64 = [...]int64{"))
	table, _, ok2 := bytes.Cut(table, []byte("\n\t}\n"))
	if !ok || !ok2 {
		log.Fatal("rngCooked not found")
	}
	out, err := format.Source(fmt.Appendf(nil, "// Code generated by gen_cooked.go from math/rand/rng.go. DO NOT EDIT.\n\n%s\n"+
		"package rng\n\n// rngCooked is math/rand's seeding table, XORed into every seeded state.\n"+
		"var rngCooked = [rngLen]int64{%s\n}\n", notice, table))
	if err == nil {
		err = os.WriteFile("cooked.go", out, 0o644)
	}
	if err != nil {
		log.Fatal(err)
	}
}
