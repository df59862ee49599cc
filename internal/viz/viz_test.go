package viz

import (
	"strings"
	"testing"

	"tasp/internal/noc"
)

func TestRouterHeatmapLayout(t *testing.T) {
	cfg := noc.DefaultConfig()
	vals := make([]float64, 16)
	vals[0] = 10 // bottom-left hottest
	s := RouterHeatmap(cfg, "demo", vals)
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if lines[0] != "demo" {
		t.Fatalf("title line: %q", lines[0])
	}
	if len(lines) != 5 { // title + 4 rows
		t.Fatalf("lines: %d", len(lines))
	}
	// Router 0 is bottom-left: the last row must carry the hottest glyph.
	if !strings.Contains(lines[4], "@@") {
		t.Fatalf("hot cell not in bottom row: %q", lines[4])
	}
	if strings.Contains(lines[1], "@@") {
		t.Fatalf("top row should be cold: %q", lines[1])
	}
	if !strings.Contains(lines[4], "r0 =10") {
		t.Fatalf("numeric annotation missing: %q", lines[4])
	}
}

func TestRouterHeatmapAllZero(t *testing.T) {
	s := RouterHeatmap(noc.DefaultConfig(), "zeros", make([]float64, 16))
	if strings.Contains(s, "@") {
		t.Fatal("zero map shows hot glyphs")
	}
}

func TestLinkMapShadesHotLink(t *testing.T) {
	cfg := noc.DefaultConfig()
	s := LinkMap(cfg, "links", func(from, to int) float64 {
		if from == 0 && to == 1 {
			return 1
		}
		return 0
	})
	if !strings.Contains(s, "[ 0]@") {
		t.Fatalf("hot 0->1 link not shaded next to router 0:\n%s", s)
	}
	if !strings.Contains(s, "glyph ramp") {
		t.Fatal("legend missing")
	}
}
