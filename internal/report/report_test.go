package report

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Title", "A", "B")
	tb.Add("x", "1")
	tb.Add("longer", "2")
	s := tb.String()
	if !strings.Contains(s, "Title") || !strings.Contains(s, "longer") {
		t.Errorf("table missing content:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Errorf("unexpected line count %d:\n%s", len(lines), s)
	}
	// Columns aligned: both rows' second column starts at the same offset.
	r1 := strings.Index(lines[3], "1")
	r2 := strings.Index(lines[4], "2")
	if r1 != r2 {
		t.Errorf("columns misaligned: %d vs %d", r1, r2)
	}
}

func TestTableAddf(t *testing.T) {
	tb := NewTable("", "A", "B", "C")
	tb.Addf("%s|%d|%.2f", "x", 3, 1.5)
	if len(tb.Rows[0]) != 3 || tb.Rows[0][2] != "1.50" {
		t.Errorf("Addf rows = %v", tb.Rows)
	}
}

func TestCSV(t *testing.T) {
	tb := NewTable("", "name", "value")
	tb.Add("a,b", `say "hi"`)
	csv := tb.CSV()
	if !strings.Contains(csv, `"a,b"`) {
		t.Errorf("comma cell not quoted: %s", csv)
	}
	if !strings.Contains(csv, `"say ""hi"""`) {
		t.Errorf("quote cell not escaped: %s", csv)
	}
	if !strings.HasPrefix(csv, "name,value\n") {
		t.Errorf("header wrong: %s", csv)
	}
}

func TestBarChart(t *testing.T) {
	c := &BarChart{Title: "FIT", Width: 40, RefLine: 0.2, RefLabel: "ASIL-D"}
	c.Add("yolo", Segment{"datapath", 3}, Segment{"local", 0.5}, Segment{"global", 6})
	c.Add("tiny", Segment{"datapath", 0.05})
	s := c.String()
	if !strings.Contains(s, "legend:") {
		t.Errorf("missing legend:\n%s", s)
	}
	if !strings.Contains(s, "9.5") {
		t.Errorf("missing total:\n%s", s)
	}
	if !strings.Contains(s, "ASIL-D") {
		t.Errorf("missing ref label:\n%s", s)
	}
	// The dominant bar must be visibly longer.
	lines := strings.Split(s, "\n")
	var yoloFill, tinyFill int
	for _, l := range lines {
		if strings.HasPrefix(l, "yolo") {
			yoloFill = strings.Count(l, "#") + strings.Count(l, "=") + strings.Count(l, ".")
		}
		if strings.HasPrefix(l, "tiny") {
			tinyFill = strings.Count(l, "#")
		}
	}
	if yoloFill <= tinyFill {
		t.Errorf("bar lengths wrong: yolo=%d tiny=%d", yoloFill, tinyFill)
	}
}

func TestBarChartEmpty(t *testing.T) {
	c := &BarChart{Title: "empty"}
	if s := c.String(); !strings.Contains(s, "empty") {
		t.Errorf("empty chart should still render title: %q", s)
	}
}
