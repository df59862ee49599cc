package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Annotation verbs and the analyzers that honor them:
//
//	//nocvet:orderfree <reason>   detrange: the loop body is insensitive to
//	                              map iteration order.
//	//nocvet:allowalloc <reason>  hotalloc: the allocation is deliberate —
//	                              a cold path, or an append into storage
//	                              pre-sized at construction.
//	//nocvet:allowcopy <reason>   hotcopy: the by-value copy is deliberate
//	                              (a cold path reached from a hot root).
//	//nocvet:nondet <reason>      detsource: the nondeterminism source is
//	                              deliberate (e.g. tooling that stamps a
//	                              wall-clock date outside any golden path).
//	//nocvet:keep <reason>        deadexport: the exported identifier has no
//	                              non-test user but stays, and the reason
//	                              names the test, paper remark or open
//	                              ROADMAP item that needs it.
//
// An annotation covers findings on its own line (trailing comment) or on
// the line directly below (own-line comment). The reason is mandatory:
// an escape hatch without a justification is itself a finding. Unknown
// verbs and annotations that suppressed nothing are reported, never
// silently honored — see RunAnalyzers.
const annotPrefix = "//nocvet:"

var knownVerbs = map[string]bool{
	"orderfree":  true,
	"allowalloc": true,
	"allowcopy":  true,
	"nondet":     true,
	"keep":       true,
}

// Annotation is one parsed //nocvet:<verb> <reason> comment.
type Annotation struct {
	Verb   string
	Reason string
	Pos    token.Pos
	used   bool
}

// Annotations indexes a package's annotations by file and line.
type Annotations struct {
	byLine map[fileLine][]*Annotation
	all    []*Annotation // in file/position order, for deterministic reports
}

type fileLine struct {
	file string
	line int
}

// ParseAnnotations extracts every //nocvet:* comment from the files and
// returns the well-formed ones plus diagnostics for the malformed ones
// (unknown verb, missing reason). Malformed annotations are not indexed:
// they can never suppress a finding.
func ParseAnnotations(fset *token.FileSet, files []*ast.File) (*Annotations, []Diagnostic) {
	a := &Annotations{byLine: map[fileLine][]*Annotation{}}
	var malformed []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, annotPrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, annotPrefix)
				// Fixture files append analysistest-style expectations
				// ("// want ...") to the same comment; they are not part
				// of the reason.
				if i := strings.Index(rest, "// want"); i >= 0 {
					rest = rest[:i]
				}
				verb, reason, _ := strings.Cut(rest, " ")
				reason = strings.TrimSpace(reason)
				switch {
				case !knownVerbs[verb]:
					malformed = append(malformed, Diagnostic{
						Pos:      c.Pos(),
						Analyzer: "nocvet",
						Message: "unknown nocvet annotation verb " + quoteVerb(verb) +
							" (known: allowalloc, allowcopy, keep, nondet, orderfree)",
					})
				case reason == "":
					malformed = append(malformed, Diagnostic{
						Pos:      c.Pos(),
						Analyzer: "nocvet",
						Message:  "nocvet:" + verb + " annotation requires a reason",
					})
				default:
					an := &Annotation{Verb: verb, Reason: reason, Pos: c.Pos()}
					pos := fset.Position(c.Pos())
					key := fileLine{pos.Filename, pos.Line}
					a.byLine[key] = append(a.byLine[key], an)
					a.all = append(a.all, an)
				}
			}
		}
	}
	return a, malformed
}

// at returns an annotation with the given verb covering pos — same line or
// the line above — marking it used. Nil when none covers it.
func (a *Annotations) at(fset *token.FileSet, pos token.Pos, verb string) *Annotation {
	p := fset.Position(pos)
	for _, line := range []int{p.Line, p.Line - 1} {
		for _, an := range a.byLine[fileLine{p.Filename, line}] {
			if an.Verb == verb {
				an.used = true
				return an
			}
		}
	}
	return nil
}

// unused reports every well-formed annotation that no analyzer consulted:
// an escape hatch attached to the wrong node kind (orderfree above a slice
// range, allowalloc on a cold function) suppresses nothing and must not
// linger as false documentation.
func (a *Annotations) unused() []Diagnostic {
	var out []Diagnostic
	for _, an := range a.all {
		if !an.used {
			out = append(out, Diagnostic{
				Pos:      an.Pos,
				Analyzer: "nocvet",
				Message:  "nocvet:" + an.Verb + " annotation matches no finding; attach it to the flagged statement or delete it",
			})
		}
	}
	return out
}

// quoteVerb quotes a possibly-empty verb for the unknown-verb message.
func quoteVerb(s string) string {
	if s == "" {
		return `""`
	}
	return `"` + s + `"`
}
