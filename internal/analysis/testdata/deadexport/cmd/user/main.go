// Command user is the fixture module's user of package lib.
package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() {
	var s lib.Shape = lib.New()
	fmt.Println(s.Area(), lib.Limit, lib.Covered())
}
