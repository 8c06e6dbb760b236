package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMetricNamesAndUnits(t *testing.T) {
	cases := map[Metric]string{
		SMUtil: "sm", MemUtil: "mem", MemSize: "memsize",
		PCIeTx: "pcie_tx", PCIeRx: "pcie_rx", Power: "power",
	}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", m, got, want)
		}
	}
	if Metric(42).String() != "metric(42)" {
		t.Error("unknown metric string")
	}
	if Power.Unit() != "W" || SMUtil.Unit() != "%" {
		t.Error("units wrong")
	}
}

func TestCapacity(t *testing.T) {
	if SMUtil.Capacity(300) != 100 {
		t.Error("percent capacity")
	}
	if Power.Capacity(250) != 250 {
		t.Error("power capacity")
	}
}

func TestMetricLists(t *testing.T) {
	if len(UtilizationMetrics) != 3 {
		t.Fatalf("utilization metrics = %d", len(UtilizationMetrics))
	}
	if len(BottleneckMetrics) != 5 {
		t.Fatalf("bottleneck metrics = %d", len(BottleneckMetrics))
	}
	for _, m := range BottleneckMetrics {
		if m < 0 || m >= NumMetrics {
			t.Fatalf("invalid metric %d in list", m)
		}
		if m == Power {
			t.Fatal("power is not a bottleneck metric (no 100% semantics)")
		}
	}
}

func TestSummaryRecordValid(t *testing.T) {
	good := SummaryRecord{Min: 1, Mean: 2, Max: 3}
	if !good.Valid() {
		t.Error("valid record rejected")
	}
	if (SummaryRecord{Min: 3, Mean: 2, Max: 1}).Valid() {
		t.Error("inverted record accepted")
	}
	if (SummaryRecord{Mean: math.NaN()}).Valid() {
		t.Error("NaN record accepted")
	}
	// Equal values are valid (constant metric).
	if !(SummaryRecord{Min: 5, Mean: 5, Max: 5}).Valid() {
		t.Error("constant record rejected")
	}
}

func TestAveragedLinearInInputs(t *testing.T) {
	var a, b MetricSummaries
	for m := Metric(0); m < NumMetrics; m++ {
		a[m] = SummaryRecord{Min: 1, Mean: 2, Max: 3}
		b[m] = SummaryRecord{Min: 3, Mean: 6, Max: 9}
	}
	avg := Averaged([]MetricSummaries{a, b})
	for m := Metric(0); m < NumMetrics; m++ {
		if avg[m].Min != 2 || avg[m].Mean != 4 || avg[m].Max != 6 {
			t.Fatalf("metric %v averaged wrong: %+v", m, avg[m])
		}
	}
	if z := Averaged(nil); z[SMUtil].Mean != 0 {
		t.Error("empty average not zero")
	}
}

// Property: averaging N identical summaries is the identity, and averaging
// preserves validity.
func TestAveragedProperty(t *testing.T) {
	f := func(lo, spanA, spanB float64, nRaw uint8) bool {
		if math.IsNaN(lo) || math.IsInf(lo, 0) || math.Abs(lo) > 1e12 {
			return true
		}
		a := math.Abs(math.Mod(spanA, 100))
		b := math.Abs(math.Mod(spanB, 100))
		rec := SummaryRecord{Min: lo, Mean: lo + a, Max: lo + a + b}
		var s MetricSummaries
		for m := Metric(0); m < NumMetrics; m++ {
			s[m] = rec
		}
		n := int(nRaw%5) + 1
		in := make([]MetricSummaries, n)
		for i := range in {
			in[i] = s
		}
		avg := Averaged(in)
		for m := Metric(0); m < NumMetrics; m++ {
			if math.Abs(avg[m].Mean-rec.Mean) > 1e-6*(1+math.Abs(rec.Mean)) {
				return false
			}
			if !avg[m].Valid() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleShape(t *testing.T) {
	var s Sample
	s.TimeSec = 1.5
	s.Values[Power] = 45
	if s.Values[Power] != 45 || s.Values[SMUtil] != 0 {
		t.Fatal("sample storage wrong")
	}
}

// UtilizationMetrics lists the percentage-valued metrics that the
// utilization analyses (Figs. 4, 5, 7, 10, 11, 14, 16) iterate over.
var UtilizationMetrics = []Metric{SMUtil, MemUtil, MemSize}

// Unit returns the metric's unit label.
func (m Metric) Unit() string {
	if m == Power {
		return "W"
	}
	return "%"
}

// Capacity returns the metric's saturation value in its own unit given the
// device's power limit in watts. Percent metrics saturate at 100.
func (m Metric) Capacity(powerLimitWatts float64) float64 {
	if m == Power {
		return powerLimitWatts
	}
	return 100
}
