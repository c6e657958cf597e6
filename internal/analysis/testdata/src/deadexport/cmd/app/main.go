// Command app is the root module's non-test user of lib.
package main

import (
	"fmt"

	"deadexport/internal/lib"
)

func main() {
	var s lib.Shape = lib.Square{Side: lib.Unit}
	fmt.Println(lib.UsedByCmd(), s.Area())
}
