// Package lib is the deadexport fixture: every exported identifier either
// has a user outside the test files, or is reported.
package lib

import "fmt"

// Limit is used from another package.
const Limit = 3

// Unused has no user anywhere.
func Unused() int { return Limit } // want `Unused is exported but no non-test code uses it`

// Orphan is a type nothing names.
type Orphan struct{} // want `Orphan is exported but no non-test code uses it`

// Shape is the interface the user holds a Thing through.
type Shape interface{ Area() int }

// Thing is named only in this package, by New's signature.
type Thing struct{ n int }

// New is used from another package.
func New() *Thing { return &Thing{n: inside()} }

// Area implements Shape: its only call goes through the interface.
func (t *Thing) Area() int { return t.n }

// String implements fmt.Stringer.
func (t *Thing) String() string { return fmt.Sprint(t.n) }

// Dead is a method nothing calls.
func (t *Thing) Dead() int { return t.n } // want `Thing.Dead is exported but no non-test code uses it`

// Half would satisfy an interface that also names Area, but *Half has no
// Area method, so the name alone does not exempt it.
type Half struct{}

// Perimeter is named by Polygon, which *Half does not implement.
func (Half) Perimeter() int { return 0 } // want `Half.Perimeter is exported but no non-test code uses it`

// Polygon is implemented by nothing in the fixture.
type Polygon interface {
	Area() int
	Perimeter() int
}

// Inside is used only inside this package.
func Inside() int { return 1 }

// inside names Polygon and calls Inside.
func inside() int {
	var ps []Polygon
	return Inside() + len(ps)
}

// BenchOnly is used only by the benchmark module.
func BenchOnly() {}

// Kept has no user but a keep annotation with a reason.
//
//nocvet:keep the fixture's test checks that a reasoned keep suppresses
func Kept() {}

//nocvet:keep // want `nocvet:keep annotation requires a reason`
func NoReason() {} // want `NoReason is exported but no non-test code uses it`

// Covered is used, so its keep suppresses nothing.
//
//nocvet:keep it has a user // want `nocvet:keep annotation matches no finding`
func Covered() int { return 2 }
