// Package lib is the golden corpus for the deadexport analyzer. The
// module around it stands in for a repo: cmd/app is a non-test user in
// the same module, bench is a nested module whose uses count too, and
// lib_test.go is a test file whose uses do not.
package lib

import "fmt"

// Unit is used by cmd/app.
const Unit = 1.0

// Spare is used by nothing.
const Spare = 2.0 // want `exported Spare is referenced by no non-test file`

// UsedByCmd is used by another package of the module.
func UsedByCmd() int { return 1 }

// UsedByBench is used only by the nested bench module.
func UsedByBench() int { return 2 }

// Unused is used by nothing.
func Unused() {} // want `exported Unused is referenced by no non-test file`

// TestOnly is used only by lib_test.go.
func TestOnly() {} // want `exported TestOnly is referenced by no non-test file`

// Recurse is used only inside its own declaration.
func Recurse(n int) int { // want `exported Recurse is referenced by no non-test file`
	if n == 0 {
		return 0
	}
	return Recurse(n - 1)
}

// Oracle exists for tests to compare against, and says so.
//
//sidco:oracle the tests compare their results against it
func Oracle() {}

// Fixture is a value tests build from, and says so.
//
//sidco:oracle the tests build their inputs from it
var Fixture = []int{1, 2}

// NoReason carries the directive without its why, so it is still flagged.
/* want `sidco:oracle directive is missing its reason` */ //sidco:oracle
//
func NoReason() {} // want `exported NoReason is referenced by no non-test file`

// unexported identifiers are never flagged.
func unexported() {}

// Shape is used by cmd/app.
type Shape interface{ Area() float64 }

// Square is used by cmd/app.
type Square struct{ Side float64 }

// Area is called only through Shape.
func (s Square) Area() float64 { return s.Side * s.Side }

// String implements fmt.Stringer, an interface of an imported package.
func (s Square) String() string { return fmt.Sprint(s.Side) }

// Perimeter implements no interface method and nothing calls it.
func (s Square) Perimeter() float64 { return 4 * s.Side } // want `exported Square.Perimeter is referenced by no non-test file`

// Orphan is used only by its own methods.
type Orphan struct{} // want `exported Orphan is referenced by no non-test file`

// Area implements Shape, so the method itself is not flagged.
func (o Orphan) Area() float64 { return o.scale() }

func (Orphan) scale() float64 { return 0 }
