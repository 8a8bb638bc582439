// Package report renders the reproduction's tables and figures as aligned
// ASCII (for terminals and EXPERIMENTS.md) and CSV (for external plotting).
package report

import (
	"fmt"
	"strings"
)

// Table is a simple column-aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable builds a table with the given title and headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// Add appends a row; extra/missing cells are tolerated.
func (t *Table) Add(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Addf appends a row of formatted values; the formatted string is split into
// cells at '|' separators, so cell content must not contain pipes.
func (t *Table) Addf(format string, args ...any) {
	t.Add(strings.Split(fmt.Sprintf(format, args...), "|")...)
}

// String renders the aligned table.
func (t *Table) String() string {
	cols := len(t.Headers)
	for _, r := range t.Rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	width := make([]int, cols)
	measure := func(r []string) {
		for i, c := range r {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	measure(t.Headers)
	for _, r := range t.Rows {
		measure(r)
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(r []string) {
		for i := 0; i < cols; i++ {
			c := ""
			if i < len(r) {
				c = r[i]
			}
			fmt.Fprintf(&b, "%-*s", width[i]+2, c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	total := 0
	for _, w := range width {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (cells containing commas
// are quoted).
func (t *Table) CSV() string {
	var b strings.Builder
	row := func(r []string) {
		for i, c := range r {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteString(`"` + strings.ReplaceAll(c, `"`, `""`) + `"`)
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	row(t.Headers)
	for _, r := range t.Rows {
		row(r)
	}
	return b.String()
}

// Bar is one bar of a chart, optionally stacked into named segments.
type Bar struct {
	Label    string
	Segments []Segment
}

// Segment is one stacked component of a bar.
type Segment struct {
	Name  string
	Value float64
}

// Total returns the bar's height.
func (b Bar) Total() float64 {
	var s float64
	for _, seg := range b.Segments {
		s += seg.Value
	}
	return s
}

// BarChart renders horizontal stacked bars with a shared scale — the ASCII
// analog of the paper's Fig 4/5/6 stacked FIT-rate charts.
type BarChart struct {
	Title string
	Bars  []Bar
	// Width is the maximum bar width in characters (default 50).
	Width int
	// RefLine draws a reference marker at this value when > 0 (e.g. the 0.2
	// ASIL-D budget).
	RefLine float64
	// RefLabel names the reference line.
	RefLabel string
}

// Add appends a stacked bar.
func (c *BarChart) Add(label string, segments ...Segment) {
	c.Bars = append(c.Bars, Bar{Label: label, Segments: segments})
}

// segmentGlyphs maps stack positions to fill characters.
var segmentGlyphs = []byte{'#', '=', '.', '+', '*'}

// String renders the chart.
func (c *BarChart) String() string {
	width := c.Width
	if width <= 0 {
		width = 50
	}
	maxv := c.RefLine
	labelW := 0
	for _, b := range c.Bars {
		if t := b.Total(); t > maxv {
			maxv = t
		}
		if len(b.Label) > labelW {
			labelW = len(b.Label)
		}
	}
	if maxv <= 0 {
		maxv = 1
	}
	var sb strings.Builder
	if c.Title != "" {
		fmt.Fprintf(&sb, "%s\n", c.Title)
	}
	// Legend from segment names in first appearance order.
	seen := map[string]int{}
	var order []string
	for _, b := range c.Bars {
		for _, s := range b.Segments {
			if _, ok := seen[s.Name]; !ok && s.Name != "" {
				seen[s.Name] = len(order)
				order = append(order, s.Name)
			}
		}
	}
	if len(order) > 0 {
		sb.WriteString("legend: ")
		for i, n := range order {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "%c=%s", segmentGlyphs[i%len(segmentGlyphs)], n)
		}
		sb.WriteByte('\n')
	}
	refCol := -1
	if c.RefLine > 0 {
		refCol = int(c.RefLine / maxv * float64(width))
	}
	for _, b := range c.Bars {
		row := make([]byte, width)
		for i := range row {
			row[i] = ' '
		}
		pos := 0.0
		for _, s := range b.Segments {
			glyph := byte('#')
			if i, ok := seen[s.Name]; ok {
				glyph = segmentGlyphs[i%len(segmentGlyphs)]
			}
			from := int(pos / maxv * float64(width))
			pos += s.Value
			to := int(pos / maxv * float64(width))
			for i := from; i < to && i < width; i++ {
				row[i] = glyph
			}
		}
		if refCol >= 0 && refCol < width && row[refCol] == ' ' {
			row[refCol] = '|'
		}
		fmt.Fprintf(&sb, "%-*s %s %.4g\n", labelW, b.Label, string(row), b.Total())
	}
	if c.RefLine > 0 {
		fmt.Fprintf(&sb, "%-*s %s\n", labelW, "", fmt.Sprintf("| marks %s = %.3g", c.RefLabel, c.RefLine))
	}
	return sb.String()
}
