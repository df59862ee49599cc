package analysis_test

import (
	"testing"

	"tasp/internal/analysis"
	"tasp/internal/analysis/analysistest"
)

// The analyzer fixtures each demonstrate at least one flagged and one
// permitted pattern, including the escape-hatch annotations (see the
// testdata/src sources for the expectations).

func TestDetRangeFixture(t *testing.T) {
	analysistest.Run(t, "testdata/src/detrange", analysis.NewDetRange())
}

func TestDetSourceFixture(t *testing.T) {
	analysistest.Run(t, "testdata/src/detsource", analysis.NewDetSource())
}

func TestHotAllocFixture(t *testing.T) {
	analysistest.Run(t, "testdata/src/hotalloc", analysis.NewHotAlloc([]string{"Net.Step"}))
}

func TestHotCopyFixture(t *testing.T) {
	analysistest.Run(t, "testdata/src/hotcopy", analysis.NewHotCopy([]string{"Net.Step"}))
}

func TestTelemetrySafeFixture(t *testing.T) {
	protected := []analysis.ProtectedField{
		{Type: "Router", Field: "occ"},
		{Type: "Router", Field: "inFlits"},
		{Type: "scheduler", Field: "flitsIn"},
		{Type: "scheduler", Field: "actIn"},
		{Type: "activeSet", Field: "w"},
	}
	analysistest.Run(t, "testdata/src/telemetrysafe",
		analysis.NewTelemetrySafe(protected, []string{"sched.go"}))
}

// TestAnnotFixture exercises the annotation parser end to end: unknown
// verbs and reason-less annotations are reported, a malformed annotation
// does not suppress the finding beneath it, and a well-formed annotation
// no analyzer consulted is reported as unused.
func TestAnnotFixture(t *testing.T) {
	analysistest.Run(t, "testdata/src/annot", analysis.NewDetRange())
}
