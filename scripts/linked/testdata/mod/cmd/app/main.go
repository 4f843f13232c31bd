// Command app links some of lib.
package main

import (
	"fmt"

	"tiny/internal/lib"
)

func main() {
	c := &lib.Counter{}
	inc := c.Inc // a method value
	inc()
	fmt.Println(lib.Max(3, 4), c.N)
}
