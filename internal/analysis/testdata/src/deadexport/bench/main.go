// Command bench is the nested module's user of lib.
package main

import "deadexport/internal/lib"

func main() { println(lib.UsedByBench()) }
