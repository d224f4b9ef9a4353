package exp

import (
	"fmt"
	"math"
	"strings"
)

// plotGlyphs marks one scheme each, in column order.
var plotGlyphs = []byte{'*', '+', 'o', 'x', '#', '@', '%'}

// Plot renders the figure as a terminal scatter/line chart, in the spirit
// of the paper's gnuplot figures: x ascending left to right, the metric
// on the y axis, one glyph per scheme. Width and height are the plot
// area's character dimensions (sensible minimums are enforced).
func (t *FigureTable) Plot(width, height int) string {
	if width < 20 {
		width = 20
	}
	if height < 8 {
		height = 8
	}
	if len(t.Xs) == 0 {
		return "(no data)\n"
	}

	xMin, xMax := t.Xs[0], t.Xs[len(t.Xs)-1]
	yMin, yMax := math.Inf(1), math.Inf(-1)
	for _, x := range t.Xs {
		for _, s := range t.Schemes {
			v := t.Values[x][s]
			yMin = math.Min(yMin, v)
			yMax = math.Max(yMax, v)
		}
	}
	if yMax == yMin {
		yMax = yMin + 1
	}
	if xMax == xMin {
		xMax = xMin + 1
	}
	// A little headroom so the top curve is not glued to the frame.
	pad := (yMax - yMin) * 0.05
	yMax += pad
	if yMin > 0 && yMin-pad >= 0 {
		yMin -= pad
	}

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	col := func(x float64) int {
		c := int(math.Round((x - xMin) / (xMax - xMin) * float64(width-1)))
		return clamp(c, 0, width-1)
	}
	row := func(y float64) int {
		r := int(math.Round((yMax - y) / (yMax - yMin) * float64(height-1)))
		return clamp(r, 0, height-1)
	}
	for si, s := range t.Schemes {
		glyph := plotGlyphs[si%len(plotGlyphs)]
		prevC, prevR := -1, -1
		for _, x := range t.Xs {
			c, r := col(x), row(t.Values[x][s])
			if prevC >= 0 {
				// Sparse linear interpolation between consecutive points
				// keeps the curve readable without crowding.
				steps := c - prevC
				for i := 1; i < steps; i++ {
					ic := prevC + i
					ir := prevR + (r-prevR)*i/steps
					if grid[ir][ic] == ' ' {
						grid[ir][ic] = '.'
					}
				}
			}
			grid[r][c] = glyph
			prevC, prevR = c, r
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", strings.ToUpper(t.Figure.ID[:1])+t.Figure.ID[1:], t.Figure.Title)
	yLabelTop := fmt.Sprintf("%.4g", yMax)
	yLabelBot := fmt.Sprintf("%.4g", yMin)
	margin := len(yLabelTop)
	if len(yLabelBot) > margin {
		margin = len(yLabelBot)
	}
	for r := 0; r < height; r++ {
		label := strings.Repeat(" ", margin)
		switch r {
		case 0:
			label = fmt.Sprintf("%*s", margin, yLabelTop)
		case height - 1:
			label = fmt.Sprintf("%*s", margin, yLabelBot)
		}
		fmt.Fprintf(&b, "%s |%s\n", label, string(grid[r]))
	}
	fmt.Fprintf(&b, "%s +%s\n", strings.Repeat(" ", margin), strings.Repeat("-", width))
	fmt.Fprintf(&b, "%s  %-*g%*g\n", strings.Repeat(" ", margin), width/2, xMin, width-width/2, xMax)
	fmt.Fprintf(&b, "%s  x: %s, y: %s\n", strings.Repeat(" ", margin), t.Figure.Sweep.XLabel, t.Figure.Metric)
	legend := make([]string, 0, len(t.Schemes))
	for si, s := range t.Schemes {
		legend = append(legend, fmt.Sprintf("%c %s", plotGlyphs[si%len(plotGlyphs)], s))
	}
	fmt.Fprintf(&b, "%s  %s\n", strings.Repeat(" ", margin), strings.Join(legend, "   "))
	return b.String()
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
