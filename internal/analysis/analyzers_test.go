package analysis_test

import (
	"testing"

	"tasp/internal/analysis"
)

// The analyzer fixtures each demonstrate at least one flagged and one
// permitted pattern, including the escape-hatch annotations (see the
// testdata/src sources for the expectations).

func TestDetRangeFixture(t *testing.T) {
	runFixture(t, "testdata/src/detrange", analysis.NewDetRange())
}

func TestDetSourceFixture(t *testing.T) {
	runFixture(t, "testdata/src/detsource", analysis.NewDetSource())
}

// TestHotAllocFixture includes a root that names nothing, as a root left
// behind by a rename would.
func TestHotAllocFixture(t *testing.T) {
	runFixture(t, "testdata/src/hotalloc", analysis.NewHotAlloc([]string{"Net.Step", "Net.Gone"}))
}

func TestHotCopyFixture(t *testing.T) {
	runFixture(t, "testdata/src/hotcopy", analysis.NewHotCopy([]string{"Net.Step"}))
}

// TestTelemetrySafeFixture includes a protected field and an allowed file
// that name nothing, as entries left behind by a rename would.
func TestTelemetrySafeFixture(t *testing.T) {
	protected := []analysis.ProtectedField{
		{Type: "Router", Field: "occ"},
		{Type: "Router", Field: "inFlits"},
		{Type: "Router", Field: "gone"},
		{Type: "scheduler", Field: "flitsIn"},
		{Type: "scheduler", Field: "actIn"},
		{Type: "activeSet", Field: "w"},
	}
	runFixture(t, "testdata/src/telemetrysafe",
		analysis.NewTelemetrySafe(protected, []string{"sched.go", "gone.go"}))
}

// TestAnnotFixture exercises the annotation parser end to end: unknown
// verbs and reason-less annotations are reported, a malformed annotation
// does not suppress the finding beneath it, and a well-formed annotation
// no analyzer consulted is reported as unused.
func TestAnnotFixture(t *testing.T) {
	runFixture(t, "testdata/src/annot", analysis.NewDetRange())
}

// TestDeadExportFixture runs deadexport over a module laid out like this
// one: its internal package's identifiers are used from a command, from
// inside the package, through interfaces, and from a nested benchmark
// module, and the rest are reported.
func TestDeadExportFixture(t *testing.T) {
	const root = "testdata/deadexport"
	uses, err := analysis.LoadUses(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := analysis.Load(root, "./internal/lib")
	if err != nil {
		t.Fatal(err)
	}
	checkWants(t, pkgs[0], analysis.NewDeadExport(uses))
}
