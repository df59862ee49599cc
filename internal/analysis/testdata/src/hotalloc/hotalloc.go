// Fixture for the hotalloc analyzer, rooted at Net.Step: every function
// statically reachable from a root must be free of allocation-inducing
// constructs unless annotated //nocvet:allowalloc with a reason.
package hotalloc // want `hot-path root "Net.Gone" names no function of fixture/hotalloc`

import "fmt"

type item struct{ v int }

// Net mimics the simulator: Step is the hot path, Cold is not.
type Net struct {
	buf  []int
	sink interface{}
}

func (n *Net) Step() {
	n.helper()
	s := make([]int, 4) // want `make allocates on the hot path \(Net\.Step\)`
	_ = s
	p := new(item) // want `new allocates`
	_ = p
	q := &item{v: 1} // want `heap allocation &item\{\.\.\.\}`
	_ = q
	n.buf = append(n.buf, 1)                // want `append may grow its backing array`
	n.buf = append(n.buf[:0], n.buf[1:]...) // permitted: self-delete idiom never grows
	fmt.Println("step")                     // want `fmt\.Println formats`
	n.box(3)                                // want `interface boxing of int argument`
	f := func() {}                          // want `closure allocation`
	f()
	//nocvet:allowalloc warm-up growth only, capacity is bounded by config
	n.buf = append(n.buf, 2)
	_ = n.dump()
}

// helper is reached transitively from Step, so its body is checked too.
func (n *Net) helper() {
	n.buf = append(n.buf, 2) // want `append may grow its backing array on the hot path \(Net\.Step -> Net\.helper\)`
}

func (n *Net) box(v interface{}) { n.sink = v }

// dump is reachable from Step but wholly sanctioned by a function-level
// annotation: diagnostics-only code invoked on invariant failure.
//
//nocvet:allowalloc cold diagnostics path, formats only on failure
func (n *Net) dump() string {
	return fmt.Sprintf("%d", len(n.buf))
}

// Cold is not reachable from any root: allocations here are fine.
func Cold() []int {
	return make([]int, 8)
}
