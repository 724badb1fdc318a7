// Package trace renders experiment results: aligned text tables matching
// the paper's Table I/II layout, CSV series for the figures, and learning
// curves. Everything writes to an io.Writer so the bench harness can tee
// results to stdout and files.
package trace

import (
	"fmt"
	"io"
	"strings"
)

// Table is a simple column-aligned text table.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintf(w, "| %s |\n", strings.Join(parts, " | "))
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Series is a named sequence of (x, y) points, one line of a figure.
type Series struct {
	Name string
	X, Y []float64
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.X) }

// Figure is a set of series sharing axes — one paper subplot.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []*Series
}

// NewFigure returns an empty figure.
func NewFigure(title, xlabel, ylabel string) *Figure {
	return &Figure{Title: title, XLabel: xlabel, YLabel: ylabel}
}

// AddSeries appends a new named series and returns it.
func (f *Figure) AddSeries(name string) *Series {
	s := &Series{Name: name}
	f.Series = append(f.Series, s)
	return s
}

// WriteCSV emits the figure as CSV: header "x,<series...>", one row per
// x-position (series are aligned by index; shorter series leave blanks).
func (f *Figure) WriteCSV(w io.Writer) error {
	names := make([]string, 0, len(f.Series)+1)
	names = append(names, f.XLabel)
	maxLen := 0
	for _, s := range f.Series {
		names = append(names, s.Name)
		if s.Len() > maxLen {
			maxLen = s.Len()
		}
	}
	if _, err := fmt.Fprintf(w, "# %s\n%s\n", f.Title, strings.Join(names, ",")); err != nil {
		return err
	}
	for i := 0; i < maxLen; i++ {
		cells := make([]string, 0, len(f.Series)+1)
		x := ""
		for _, s := range f.Series {
			if i < s.Len() {
				x = fmt.Sprintf("%g", s.X[i])
				break
			}
		}
		cells = append(cells, x)
		for _, s := range f.Series {
			if i < s.Len() {
				cells = append(cells, fmt.Sprintf("%g", s.Y[i]))
			} else {
				cells = append(cells, "")
			}
		}
		if _, err := fmt.Fprintln(w, strings.Join(cells, ",")); err != nil {
			return err
		}
	}
	return nil
}

// RenderASCII draws a crude terminal plot of the figure (y range
// auto-scaled, one glyph per series), good enough to eyeball curve shapes
// in bench output.
func (f *Figure) RenderASCII(w io.Writer, width, height int) {
	if width < 16 {
		width = 16
	}
	if height < 4 {
		height = 4
	}
	minX, maxX, minY, maxY := f.bounds()
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	glyphs := "*+xo#@%&"
	for si, s := range f.Series {
		g := glyphs[si%len(glyphs)]
		for i := 0; i < s.Len(); i++ {
			px := int(float64(width-1) * (s.X[i] - minX) / (maxX - minX))
			py := int(float64(height-1) * (s.Y[i] - minY) / (maxY - minY))
			grid[height-1-py][px] = g
		}
	}
	fmt.Fprintf(w, "%s  (y: %.3g..%.3g, x: %.3g..%.3g)\n", f.Title, minY, maxY, minX, maxX)
	for _, row := range grid {
		fmt.Fprintf(w, "  |%s|\n", string(row))
	}
	legend := make([]string, 0, len(f.Series))
	for si, s := range f.Series {
		legend = append(legend, fmt.Sprintf("%c=%s", glyphs[si%len(glyphs)], s.Name))
	}
	fmt.Fprintf(w, "  %s\n", strings.Join(legend, "  "))
}

func (f *Figure) bounds() (minX, maxX, minY, maxY float64) {
	first := true
	for _, s := range f.Series {
		for i := 0; i < s.Len(); i++ {
			if first {
				minX, maxX, minY, maxY = s.X[i], s.X[i], s.Y[i], s.Y[i]
				first = false
				continue
			}
			if s.X[i] < minX {
				minX = s.X[i]
			}
			if s.X[i] > maxX {
				maxX = s.X[i]
			}
			if s.Y[i] < minY {
				minY = s.Y[i]
			}
			if s.Y[i] > maxY {
				maxY = s.Y[i]
			}
		}
	}
	return
}
