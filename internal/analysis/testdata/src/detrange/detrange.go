// Fixture for the detrange analyzer: map iteration order is
// nondeterministic, so ranging a map in simulation code is flagged unless
// the loop provably observes no order or carries an orderfree annotation.
package detrange

import "sort"

// Flagged: the body observes iteration order (it prints-like accumulates
// into an order-sensitive slice).
func Flagged(m map[int]int) []int {
	var out []int
	for k, v := range m { // want `nondeterministic iteration over map map\[int\]int`
		out = append(out, k+v)
	}
	return out
}

// PermittedSorted is the sanctioned pattern: collect the keys (annotated,
// because the collection itself ranges the map), sort, then iterate the
// slice — the second loop ranges a slice and is not flagged.
func PermittedSorted(m map[string]int) []string {
	ks := make([]string, 0, len(m))
	for k := range m { //nocvet:orderfree keys are sorted before use
		ks = append(ks, k)
	}
	sort.Strings(ks)
	out := make([]string, 0, len(ks))
	for _, k := range ks {
		out = append(out, k)
	}
	return out
}

// PermittedCounting binds no loop variables: no order is observable.
func PermittedCounting(m map[int]int) int {
	n := 0
	for range m {
		n++
	}
	return n
}

// PermittedAnnotated documents an order-insensitive body.
func PermittedAnnotated(m map[int]int) int {
	s := 0
	for _, v := range m { //nocvet:orderfree commutative sum
		s += v
	}
	return s
}

// FlaggedFloatSum carries an orderfree annotation, but it sums float64
// terms in map order: float addition is not associative, so the total's
// last bits vary from run to run and no reason makes the loop order-free.
func FlaggedFloatSum(cells map[string]int, area map[string]float64) float64 {
	a := 0.0
	for c, n := range cells { //nocvet:orderfree commutative sum // want `order-dependent floating-point accumulation into a over map map\[string\]int`
		a += area[c] * float64(n)
	}
	return a
}

// FlaggedFloatField accumulates into a field of a value declared outside
// the loop, with a product this time.
func FlaggedFloatField(m map[int]float64) float64 {
	var acc struct{ prod float64 }
	acc.prod = 1
	for _, v := range m { //nocvet:orderfree commutative product // want `order-dependent floating-point accumulation into acc.prod`
		acc.prod *= v
	}
	return acc.prod
}

// PermittedFloatLocal accumulates floats only into a variable declared
// inside the body, which each iteration starts afresh.
func PermittedFloatLocal(m map[int]float64, out map[int]float64) {
	for k, v := range m { //nocvet:orderfree each key writes only its own entry
		x := 0.0
		x += v
		out[k] = x
	}
}

// Misplaced: an orderfree annotation on a slice range suppresses nothing
// and is reported instead of being silently honored.
func Misplaced(xs []int) int {
	s := 0
	//nocvet:orderfree slices already iterate in order // want `nocvet:orderfree annotation matches no finding`
	for _, x := range xs {
		s += x
	}
	return s
}
