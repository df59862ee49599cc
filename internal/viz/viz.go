// Package viz renders mesh-shaped data as ASCII art for the CLI tools:
// per-router heatmaps laid out geographically and per-link load maps drawn
// on the mesh topology. Terminals are the only display surface this
// repository assumes.
package viz

import (
	"fmt"
	"strings"

	"tasp/internal/noc"
)

// shades maps intensity (0..1) to a glyph ramp.
var shades = []string{" ", ".", ":", "-", "=", "+", "*", "#", "%", "@"}

// shade picks the glyph for v in [0, max].
func shade(v, max float64) string {
	if max <= 0 {
		return shades[0]
	}
	i := int(v / max * float64(len(shades)-1))
	if i < 0 {
		i = 0
	}
	if i >= len(shades) {
		i = len(shades) - 1
	}
	return shades[i]
}

// RouterHeatmap renders one value per router on the mesh layout, highest
// row (y) on top, with the numeric values alongside.
func RouterHeatmap(cfg noc.Config, title string, values []float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	max := 0.0
	for _, v := range values {
		if v > max {
			max = v
		}
	}
	for y := cfg.Height - 1; y >= 0; y-- {
		b.WriteString("  ")
		for x := 0; x < cfg.Width; x++ {
			v := values[cfg.RouterAt(x, y)]
			fmt.Fprintf(&b, "[%s]", strings.Repeat(shade(v, max), 2))
		}
		b.WriteString("   ")
		for x := 0; x < cfg.Width; x++ {
			fmt.Fprintf(&b, "r%-2d=%-7.3g", cfg.RouterAt(x, y), values[cfg.RouterAt(x, y)])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// LinkMap renders per-directed-link values on the mesh: routers as boxes,
// horizontal links as <./> glyph pairs and vertical links as ^/v pairs,
// shaded by load.
func LinkMap(cfg noc.Config, title string, load func(from, to int) float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	max := 0.0
	for y := 0; y < cfg.Height; y++ {
		for x := 0; x < cfg.Width; x++ {
			r := cfg.RouterAt(x, y)
			if x+1 < cfg.Width {
				e := cfg.RouterAt(x+1, y)
				if v := load(r, e); v > max {
					max = v
				}
				if v := load(e, r); v > max {
					max = v
				}
			}
			if y+1 < cfg.Height {
				n := cfg.RouterAt(x, y+1)
				if v := load(r, n); v > max {
					max = v
				}
				if v := load(n, r); v > max {
					max = v
				}
			}
		}
	}
	for y := cfg.Height - 1; y >= 0; y-- {
		// Router row with eastbound/westbound link glyphs between boxes.
		b.WriteString("  ")
		for x := 0; x < cfg.Width; x++ {
			r := cfg.RouterAt(x, y)
			fmt.Fprintf(&b, "[%2d]", r)
			if x+1 < cfg.Width {
				e := cfg.RouterAt(x+1, y)
				fmt.Fprintf(&b, "%s%s", shade(load(r, e), max), shade(load(e, r), max))
			}
		}
		b.WriteString("\n")
		// Vertical link row below (toward y-1? we draw links to the row
		// beneath, i.e. between y and y-1 — these are (r, south) pairs).
		if y > 0 {
			b.WriteString("  ")
			for x := 0; x < cfg.Width; x++ {
				up := cfg.RouterAt(x, y)
				dn := cfg.RouterAt(x, y-1)
				fmt.Fprintf(&b, " %s%s ", shade(load(up, dn), max), shade(load(dn, up), max))
				if x+1 < cfg.Width {
					b.WriteString("  ")
				}
			}
			b.WriteString("\n")
		}
	}
	b.WriteString("  glyph ramp (low->high): " + strings.Join(shades, "") + "\n")
	return b.String()
}
