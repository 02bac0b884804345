// Package lib is the testonly golden fixture's package under scope.
package lib

func Unused() {} // want `exported func Unused is referenced only from _test.go files`

func UsedElsewhere() {} // user calls it from a non-test file

func TestOnly() {} // want `exported func TestOnly is referenced only from _test.go files`

func unexported() {}

// T satisfies error, fmt.Stringer and user's unexported renderer.
type T struct{}

func (T) Error() string  { return "t" }
func (T) String() string { return "t" }
func (T) Render() string { return "t" }
func (T) Orphan()        {} // want `exported method T.Orphan is referenced only from _test.go files`

//drybellvet:testapi — an oracle other packages' tests compare against
func Marked() {}

func Bare() {} /* want `testapi needs a reason` */ //drybellvet:testapi

//drybellvet:testapi — a test double; the marker covers its methods
type Double struct{}

func (Double) Fail() {}
