package trace

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("Results", "Method", "Acc")
	tb.AddRow("fedavg", 0.936)
	tb.AddRow("adafl", 0.9343)
	out := tb.String()
	for _, want := range []string{"Results", "Method", "fedavg", "0.936", "adafl"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	if len(tb.rows) != 2 {
		t.Fatalf("table holds %d rows, want 2", len(tb.rows))
	}
}

func TestTableAlignment(t *testing.T) {
	tb := NewTable("", "A", "LongHeader")
	tb.AddRow("xxxxxxxxxx", "y")
	lines := strings.Split(strings.TrimSpace(tb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("expected 3 lines, got %d", len(lines))
	}
	if len(lines[0]) != len(lines[2]) {
		t.Fatalf("misaligned rows:\n%s", tb.String())
	}
}

func TestSeriesAndFigureCSV(t *testing.T) {
	f := NewFigure("fig", "round", "acc")
	a := f.AddSeries("fedavg")
	a.Add(1, 0.5)
	a.Add(2, 0.6)
	b := f.AddSeries("adafl")
	b.Add(1, 0.55)
	var sb strings.Builder
	if err := f.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "round,fedavg,adafl") {
		t.Fatalf("missing header: %s", out)
	}
	if !strings.Contains(out, "1,0.5,0.55") {
		t.Fatalf("missing row: %s", out)
	}
	// Shorter series leaves a blank cell.
	if !strings.Contains(out, "2,0.6,") {
		t.Fatalf("missing ragged row: %s", out)
	}
}

func TestFigureASCIIRender(t *testing.T) {
	f := NewFigure("curve", "x", "y")
	s := f.AddSeries("s")
	for i := 0; i < 10; i++ {
		s.Add(float64(i), float64(i*i))
	}
	var sb strings.Builder
	f.RenderASCII(&sb, 40, 10)
	out := sb.String()
	if !strings.Contains(out, "curve") || !strings.Contains(out, "*") {
		t.Fatalf("ASCII render broken:\n%s", out)
	}
	if !strings.Contains(out, "*=s") {
		t.Fatalf("legend missing:\n%s", out)
	}
}

func TestFigureASCIIDegenerate(t *testing.T) {
	f := NewFigure("flat", "x", "y")
	s := f.AddSeries("s")
	s.Add(1, 5)
	var sb strings.Builder
	f.RenderASCII(&sb, 20, 5) // must not divide by zero
	if !strings.Contains(sb.String(), "flat") {
		t.Fatal("degenerate figure did not render")
	}
}

func TestWriteSVGStructure(t *testing.T) {
	f := NewFigure("Accuracy & cost", "round", "acc")
	a := f.AddSeries("fedavg <1>")
	a.Add(0, 0.1)
	a.Add(10, 0.8)
	b := f.AddSeries("adafl")
	b.Add(0, 0.1)
	b.Add(10, 0.85)
	var sb strings.Builder
	if err := f.WriteSVG(&sb, 480, 300); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"<svg", "</svg>", "polyline", "Accuracy &amp; cost",
		"fedavg &lt;1&gt;", "adafl", "round",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	if strings.Count(out, "<polyline") != 2 {
		t.Errorf("expected 2 polylines, got %d", strings.Count(out, "<polyline"))
	}
}

func TestWriteSVGDegenerate(t *testing.T) {
	f := NewFigure("flat", "x", "y")
	s := f.AddSeries("s")
	s.Add(1, 5) // single point, zero ranges
	var sb strings.Builder
	if err := f.WriteSVG(&sb, 10, 10); err != nil { // forces min dimensions
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "<svg") {
		t.Fatal("degenerate SVG not rendered")
	}
}

func TestFmtTick(t *testing.T) {
	cases := map[float64]string{
		2500000: "2.5M",
		50000:   "50k",
		42:      "42",
		0.125:   "0.12",
	}
	for v, want := range cases {
		if got := fmtTick(v); got != want {
			t.Errorf("fmtTick(%v) = %q, want %q", v, got, want)
		}
	}
}
