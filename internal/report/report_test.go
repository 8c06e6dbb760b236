package report

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/stats"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("Specs", "item", "value")
	tb.AddRow("nodes", "224")
	tb.AddRowF("gpus", 448)
	tb.AddRowF("frac", 0.5, "extra-dropped")
	tb.AddRowF("nan", math.NaN())
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Specs", "item", "nodes", "448", "0.5", "n/a"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "extra-dropped") {
		t.Fatal("overflow cell rendered")
	}
}

func TestCDFPlot(t *testing.T) {
	curve := []stats.Point{{X: 1, F: 0.1}, {X: 10, F: 0.5}, {X: 100, F: 1}}
	var buf bytes.Buffer
	if err := CDFPlot(&buf, "runtimes", curve, 40, 8, true); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "runtimes") || !strings.Contains(out, "*") {
		t.Fatalf("plot malformed:\n%s", out)
	}
	if !strings.Contains(out, "1.0") || !strings.Contains(out, "0.0") {
		t.Fatal("y-axis labels missing")
	}
	// Empty curve degrades gracefully.
	buf.Reset()
	if err := CDFPlot(&buf, "empty", nil, 40, 8, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no data") {
		t.Fatal("empty plot not marked")
	}
}

func TestBarChart(t *testing.T) {
	var buf bytes.Buffer
	err := BarChart(&buf, "bottlenecks", []string{"sm", "mem"}, []float64{0.22, 0.01}, 20)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "sm") || !strings.Contains(out, "####") {
		t.Fatalf("bar chart malformed:\n%s", out)
	}
	// All-zero values should not panic or divide by zero.
	buf.Reset()
	if err := BarChart(&buf, "zeros", []string{"a"}, []float64{0}, 10); err != nil {
		t.Fatal(err)
	}
}

func TestBoxPlot(t *testing.T) {
	b := stats.NewRunsView([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9}).Box()
	line := BoxPlot("sm", b, 0, 10, 30)
	if !strings.Contains(line, "sm") || !strings.Contains(line, "|") || !strings.Contains(line, "=") {
		t.Fatalf("box plot malformed: %s", line)
	}
	empty := BoxPlot("none", stats.NewRunsView().Box(), 0, 10, 30)
	if !strings.Contains(empty, "no data") {
		t.Fatalf("empty box: %s", empty)
	}
}

func TestPct(t *testing.T) {
	if Pct(0.613) != "61.3%" {
		t.Fatalf("Pct = %s", Pct(0.613))
	}
	if Pct(math.NaN()) != "n/a" {
		t.Fatal("NaN pct")
	}
}

func TestRadar(t *testing.T) {
	var buf bytes.Buffer
	if err := Radar(&buf, "Fig7b", []string{"sm", "mem"}, []float64{0.22, 0}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "radar") {
		t.Fatal("radar title missing")
	}
}
