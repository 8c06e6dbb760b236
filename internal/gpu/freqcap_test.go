package gpu

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFrequencyCapEffect(t *testing.T) {
	spec := V100()
	pm := DefaultPowerModel()
	u := Utilization{SMPct: 80, MemPct: 10}
	nominal := pm.Watts(spec, u)

	// Full clock: nominal power, no slowdown.
	w, s := FrequencyCapEffect(spec, pm, u, 1)
	if math.Abs(w-nominal) > 1e-9 || s != 1 {
		t.Fatalf("f=1: watts %v slowdown %v", w, s)
	}
	// Half clock: dynamic power falls to 1/8, kernel takes 2×.
	w, s = FrequencyCapEffect(spec, pm, u, 0.5)
	wantW := spec.IdleWatts + (nominal-spec.IdleWatts)/8
	if math.Abs(w-wantW) > 1e-9 {
		t.Fatalf("f=0.5: watts %v, want %v", w, wantW)
	}
	if s != 2 {
		t.Fatalf("f=0.5: slowdown %v, want 2", s)
	}
	// Zero clock is a stall.
	if _, s := FrequencyCapEffect(spec, pm, u, 0); !math.IsInf(s, 1) {
		t.Fatalf("f=0 slowdown %v", s)
	}
	// f>1 clamps to nominal.
	if w, _ := FrequencyCapEffect(spec, pm, u, 2); math.Abs(w-nominal) > 1e-9 {
		t.Fatalf("f=2: watts %v", w)
	}
}

func TestFrequencyForPower(t *testing.T) {
	spec := V100()
	// No cap needed when already under target.
	if f := FrequencyForPower(spec, 100, 150); f != 1 {
		t.Fatalf("f = %v, want 1", f)
	}
	// Unreachable target.
	if f := FrequencyForPower(spec, 200, 20); f != 0 {
		t.Fatalf("f = %v, want 0", f)
	}
	// Round trip: capping nominal 225 W to 50 W.
	f := FrequencyForPower(spec, 225, 50)
	got := spec.IdleWatts + (225-spec.IdleWatts)*f*f*f
	if math.Abs(got-50) > 1e-9 {
		t.Fatalf("round trip: %v W at f=%v", got, f)
	}
}

func TestJobFrequencySlowdown(t *testing.T) {
	spec := V100()
	// Job never exceeding the target is untouched.
	if s := JobFrequencySlowdown(spec, 40, 80, 0.5, 150); s != 1 {
		t.Fatalf("slowdown %v, want 1", s)
	}
	// Busy job over target slows; idle-heavy job slows less.
	busy := JobFrequencySlowdown(spec, 150, 280, 0.9, 150)
	idle := JobFrequencySlowdown(spec, 150, 280, 0.1, 150)
	if busy <= idle || idle <= 1 {
		t.Fatalf("busy %v vs idle %v", busy, idle)
	}
	// Unreachable target stalls.
	if s := JobFrequencySlowdown(spec, 100, 200, 0.5, 10); !math.IsInf(s, 1) {
		t.Fatalf("slowdown %v, want +Inf", s)
	}
}

// Property: FrequencyForPower always yields a power at or below the target
// (when reachable), and frequency in [0, 1].
func TestFrequencyForPowerProperty(t *testing.T) {
	spec := V100()
	f := func(nomRaw, targetRaw float64) bool {
		nominal := spec.IdleWatts + math.Abs(math.Mod(nomRaw, spec.TDPWatts-spec.IdleWatts))
		target := spec.IdleWatts + math.Abs(math.Mod(targetRaw, spec.TDPWatts-spec.IdleWatts))
		fr := FrequencyForPower(spec, nominal, target)
		if fr < 0 || fr > 1 {
			return false
		}
		if fr == 0 {
			return target <= spec.IdleWatts
		}
		achieved := spec.IdleWatts + (nominal-spec.IdleWatts)*fr*fr*fr
		return achieved <= math.Max(target, nominal)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// FrequencyCapEffect returns the instantaneous board power and the kernel
// slowdown factor when the device runs at clock fraction f (0 < f <= 1) of
// its maximum, for a workload at utilization u under power model pm.
//
// Power: the dynamic component (everything above the idle floor) scales
// with f³; the idle floor is clock-independent. Slowdown: compute progress
// scales with f, so a kernel needs 1/f of its nominal time; utilization as
// observed stays the same (the busy fraction stretches with the run).
func FrequencyCapEffect(spec Spec, pm PowerModel, u Utilization, f float64) (watts, slowdown float64) {
	if f <= 0 {
		return spec.IdleWatts, math.Inf(1)
	}
	if f > 1 {
		f = 1
	}
	nominal := pm.Watts(spec, u)
	dynamic := nominal - spec.IdleWatts
	if dynamic < 0 {
		dynamic = 0
	}
	watts = spec.IdleWatts + dynamic*f*f*f
	slowdown = 1 / f
	return watts, slowdown
}
