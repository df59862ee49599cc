// Command bench is the fixture's benchmark module: the only user of
// lib.BenchOnly.
package main

import "fixture/internal/lib"

func main() { lib.BenchOnly() }
