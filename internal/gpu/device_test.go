package gpu

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/metrics"
)

func TestSpecs(t *testing.T) {
	v := V100()
	if v.MemoryGB != 32 || v.TDPWatts != 300 {
		t.Fatalf("V100 spec wrong: %+v", v)
	}
	if a := A100(); !a.MIGCapable || a.MaxMIGSlice != 7 {
		t.Fatalf("A100 spec wrong: %+v", a)
	}
	if tt := T4(); tt.PerfScore >= v.PerfScore {
		t.Fatal("T4 should be slower than V100")
	}
}

func TestDeviceAllocationLifecycle(t *testing.T) {
	d := NewDevice(DeviceID{Node: 3, Index: 1}, V100())
	if !d.Free() {
		t.Fatal("new device not free")
	}
	if err := d.Allocate(42); err != nil {
		t.Fatal(err)
	}
	if d.Free() || d.AllocatedTo() != 42 {
		t.Fatal("allocation not recorded")
	}
	if err := d.Allocate(43); err == nil {
		t.Fatal("double allocation allowed")
	}
	if err := d.Release(); err != nil {
		t.Fatal(err)
	}
	if err := d.Release(); err == nil {
		t.Fatal("double release allowed")
	}
	if err := d.Allocate(-1); err == nil {
		t.Fatal("negative job id allowed")
	}
}

func TestDeviceIDString(t *testing.T) {
	if s := (DeviceID{Node: 2, Index: 0}).String(); s != "n2:g0" {
		t.Fatalf("DeviceID string = %q", s)
	}
}

func TestPowerCap(t *testing.T) {
	d := &cappedDevice{Device: NewDevice(DeviceID{}, V100())}
	if lim := d.EffectiveLimit(); lim != 300 {
		t.Fatalf("uncapped limit = %v", lim)
	}
	if err := d.SetPowerCap(150); err != nil {
		t.Fatal(err)
	}
	if lim := d.EffectiveLimit(); lim != 150 {
		t.Fatalf("capped limit = %v", lim)
	}
	if err := d.SetPowerCap(10); err == nil {
		t.Fatal("cap below idle accepted")
	}
	if err := d.SetPowerCap(0); err != nil {
		t.Fatal(err)
	}
	if lim := d.EffectiveLimit(); lim != 300 {
		t.Fatalf("uncap failed: %v", lim)
	}
}

func TestConversions(t *testing.T) {
	d := NewDevice(DeviceID{}, V100())
	if gb := d.MemoryUsedGB(50); gb != 16 {
		t.Fatalf("MemoryUsedGB(50) = %v", gb)
	}
	if bw := d.PCIeUsedGBps(25); bw != 4 {
		t.Fatalf("PCIeUsedGBps(25) = %v", bw)
	}
}

func TestAffinePowerModel(t *testing.T) {
	m := DefaultPowerModel()
	spec := V100()
	idle := m.Watts(spec, Utilization{})
	if idle != spec.IdleWatts {
		t.Fatalf("idle power = %v, want %v", idle, spec.IdleWatts)
	}
	full := m.Watts(spec, Utilization{SMPct: 100, MemPct: 100, PCIeTxPct: 100, PCIeRxPct: 100})
	if full != spec.TDPWatts {
		t.Fatalf("full power = %v, want %v", full, spec.TDPWatts)
	}
	mid := m.Watts(spec, Utilization{SMPct: 50})
	if mid <= idle || mid >= full {
		t.Fatalf("mid power = %v out of (idle, tdp)", mid)
	}
}

func TestPowerModelMonotoneProperty(t *testing.T) {
	m := DefaultPowerModel()
	spec := V100()
	f := func(a, b float64) bool {
		ua := math.Abs(math.Mod(a, 100))
		ub := math.Abs(math.Mod(b, 100))
		if ua > ub {
			ua, ub = ub, ua
		}
		pa := m.Watts(spec, Utilization{SMPct: ua})
		pb := m.Watts(spec, Utilization{SMPct: ub})
		return pa <= pb+1e-9 && pa >= spec.IdleWatts-1e-9 && pb <= spec.TDPWatts+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestMeterMatchesWatts: a Meter returns what its model's Watts returns for
// its spec, bit for bit, whether or not the model is the affine one.
func TestMeterMatchesWatts(t *testing.T) {
	spec := V100()
	models := []PowerModel{DefaultPowerModel(), AffinePowerModel{WSM: 1, Gamma: 0}, LinearPowerModel{}}
	f := func(sm, mem, size, tx, rx float64) bool {
		u := Utilization{SMPct: math.Mod(sm, 150), MemPct: math.Mod(mem, 150), MemSizePct: size,
			PCIeTxPct: math.Mod(tx, 150), PCIeRxPct: math.Mod(rx, 150)}
		for _, pm := range models {
			meter := NewMeter(pm, spec)
			if math.Float64bits(meter.Watts(u)) != math.Float64bits(pm.Watts(spec, u)) {
				t.Logf("%T at %+v: meter %v, model %v", pm, u, meter.Watts(u), pm.Watts(spec, u))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestLinearPowerModel(t *testing.T) {
	m := LinearPowerModel{}
	spec := V100()
	if p := m.Watts(spec, Utilization{}); p != 0 {
		t.Fatalf("linear idle power = %v, want 0 (no floor)", p)
	}
	if p := m.Watts(spec, Utilization{SMPct: 100}); p != 300 {
		t.Fatalf("linear full power = %v", p)
	}
}

func TestObserveAppliesCap(t *testing.T) {
	d := &cappedDevice{Device: NewDevice(DeviceID{}, V100())}
	if err := d.SetPowerCap(100); err != nil {
		t.Fatal(err)
	}
	obs := d.Observe(DefaultPowerModel(), Utilization{SMPct: 100, MemPct: 100})
	if obs[metrics.Power] > 100 {
		t.Fatalf("observed power %v exceeds cap", obs[metrics.Power])
	}
	if obs[metrics.SMUtil] != 100 {
		t.Fatalf("observed SM = %v", obs[metrics.SMUtil])
	}
}

func TestUtilizationClamp(t *testing.T) {
	u := Utilization{SMPct: 150, MemPct: -5, MemSizePct: 50}
	u.Clamp()
	if u.SMPct != 100 || u.MemPct != 0 || u.MemSizePct != 50 {
		t.Fatalf("clamp failed: %+v", u)
	}
}

// specClamp is Clamp as a loop over the fields, the form it had before it
// was unrolled field by field.
func specClamp(u *Utilization) {
	for _, f := range []*float64{&u.SMPct, &u.MemPct, &u.MemSizePct, &u.PCIeTxPct, &u.PCIeRxPct} {
		if *f < 0 {
			*f = 0
		}
		if *f > 100 {
			*f = 100
		}
	}
}

// TestUtilizationClampMatchesSpec holds Clamp to specClamp bit for bit,
// signed zeros, infinities and NaN included.
func TestUtilizationClampMatchesSpec(t *testing.T) {
	vals := []float64{math.Copysign(0, -1), 0, -1e-300, 1e-300, 50, 99.999, 100, 100.5,
		-7, 250, math.Inf(1), math.Inf(-1), math.NaN()}
	n := len(vals)
	for i := range vals {
		for j := range vals {
			u := Utilization{SMPct: vals[i], MemPct: vals[j], MemSizePct: vals[(i+j)%n],
				PCIeTxPct: vals[(i*j)%n], PCIeRxPct: vals[(i+2*j)%n]}
			checkClamp(t, u)
		}
	}
}

func checkClamp(t *testing.T, u Utilization) {
	t.Helper()
	want := u
	specClamp(&want)
	got := u
	got.Clamp()
	for _, f := range [][2]float64{{got.SMPct, want.SMPct}, {got.MemPct, want.MemPct},
		{got.MemSizePct, want.MemSizePct}, {got.PCIeTxPct, want.PCIeTxPct}, {got.PCIeRxPct, want.PCIeRxPct}} {
		if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
			t.Fatalf("Clamp(%+v) = %+v, spec %+v", u, got, want)
		}
	}
}

func TestClassifyCapImpact(t *testing.T) {
	cases := []struct {
		avg, max, cap float64
		want          CapImpact
	}{
		{40, 80, 150, CapNoImpact},
		{40, 200, 150, CapImpactsPeak},
		{180, 280, 150, CapImpactsAverage},
		{150, 150, 150, CapNoImpact}, // boundary: at the cap is not over it
	}
	for _, c := range cases {
		if got := ClassifyCapImpact(c.avg, c.max, c.cap); got != c.want {
			t.Fatalf("ClassifyCapImpact(%v,%v,%v) = %v, want %v", c.avg, c.max, c.cap, got, c.want)
		}
	}
	if s := CapImpactsPeak.String(); s != "peak-impacted" {
		t.Fatalf("impact string = %q", s)
	}
}

func TestThrottleSlowdown(t *testing.T) {
	spec := V100()
	if s := ThrottleSlowdown(spec, 100, 150); s != 1 {
		t.Fatalf("under-cap slowdown = %v", s)
	}
	// Demand 275W under 150W cap: (275-25)/(150-25) = 2.
	if s := ThrottleSlowdown(spec, 275, 150); math.Abs(s-2) > 1e-12 {
		t.Fatalf("slowdown = %v, want 2", s)
	}
	if s := ThrottleSlowdown(spec, 100, 20); !math.IsInf(s, 1) {
		t.Fatalf("cap at/below idle with demand: slowdown = %v, want +Inf", s)
	}
}

func TestMetricsAveraged(t *testing.T) {
	a := metrics.MetricSummaries{}
	a[metrics.SMUtil] = metrics.SummaryRecord{Min: 0, Mean: 20, Max: 100}
	b := metrics.MetricSummaries{}
	b[metrics.SMUtil] = metrics.SummaryRecord{Min: 0, Mean: 40, Max: 60}
	avg := metrics.Averaged([]metrics.MetricSummaries{a, b})
	if avg[metrics.SMUtil].Mean != 30 || avg[metrics.SMUtil].Max != 80 {
		t.Fatalf("averaged = %+v", avg[metrics.SMUtil])
	}
	zero := metrics.Averaged(nil)
	if zero[metrics.SMUtil].Mean != 0 {
		t.Fatal("empty average not zero value")
	}
}

func TestSummaryRecordValid(t *testing.T) {
	if !(metrics.SummaryRecord{Min: 1, Mean: 2, Max: 3}).Valid() {
		t.Fatal("valid record rejected")
	}
	if (metrics.SummaryRecord{Min: 3, Mean: 2, Max: 1}).Valid() {
		t.Fatal("inverted record accepted")
	}
	if (metrics.SummaryRecord{Min: math.NaN()}).Valid() {
		t.Fatal("NaN record accepted")
	}
}

func TestMetricStringsAndCapacity(t *testing.T) {
	if metrics.SMUtil.String() != "sm" || metrics.Power.String() != "power" {
		t.Fatal("metric names wrong")
	}
	if metrics.Metric(99).String() == "" {
		t.Fatal("unknown metric string empty")
	}
}

// MemoryUsedGB converts a memory-size utilization percentage into gigabytes
// on this device.
func (d *Device) MemoryUsedGB(memSizePct float64) float64 {
	return d.Spec.MemoryGB * memSizePct / 100
}

// PCIeUsedGBps converts a PCIe utilization percentage into GB/s.
func (d *Device) PCIeUsedGBps(pct float64) float64 {
	return d.Spec.PCIeGBps * pct / 100
}

// cappedDevice is a device under a board power cap, the per-device form of
// the cap the power-capping study sweeps fleet-wide.
type cappedDevice struct {
	*Device
	powerCap float64 // watts; 0 means uncapped
}

// SetPowerCap caps the device at watts (0 removes the cap). Caps below idle
// power are rejected: the hardware cannot go below its floor.
func (d *cappedDevice) SetPowerCap(watts float64) error {
	if watts != 0 && watts < d.Spec.IdleWatts {
		return fmt.Errorf("gpu: power cap %.0fW below idle floor %.0fW", watts, d.Spec.IdleWatts)
	}
	d.powerCap = watts
	return nil
}

// EffectiveLimit returns the power the device may draw: the cap if set,
// otherwise TDP.
func (d *cappedDevice) EffectiveLimit() float64 {
	if d.powerCap > 0 {
		return d.powerCap
	}
	return d.Spec.TDPWatts
}

// Observe converts an instantaneous utilization state into the full metric
// vector the monitor samples, applying the power model and the active cap.
func (d *cappedDevice) Observe(m PowerModel, u Utilization) [metrics.NumMetrics]float64 {
	var out [metrics.NumMetrics]float64
	out[metrics.SMUtil] = u.SMPct
	out[metrics.MemUtil] = u.MemPct
	out[metrics.MemSize] = u.MemSizePct
	out[metrics.PCIeTx] = u.PCIeTxPct
	out[metrics.PCIeRx] = u.PCIeRxPct
	p := m.Watts(d.Spec, u)
	if lim := d.EffectiveLimit(); p > lim {
		p = lim
	}
	out[metrics.Power] = p
	return out
}
