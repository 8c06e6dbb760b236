package gpu

import "math"

// Frequency capping is the alternative knob to power capping for fitting a
// GPU fleet under a power budget (the trade-off studied by Patki et al.,
// "Comparing GPU Power and Frequency Capping", cited by the paper). A
// frequency cap slows every kernel deterministically but cuts dynamic power
// cubically (P_dyn ∝ f·V², with V tracking f); a power cap only bites when
// demand exceeds it.

// FrequencyForPower returns the clock fraction that brings a workload with
// the given nominal power draw under targetWatts, or 1 if no cap is needed.
// It returns 0 when the target is unreachable (at or below the idle floor).
func FrequencyForPower(spec Spec, nominalWatts, targetWatts float64) float64 {
	if nominalWatts <= targetWatts {
		return 1
	}
	if targetWatts <= spec.IdleWatts {
		return 0
	}
	dynamic := nominalWatts - spec.IdleWatts
	f := math.Cbrt((targetWatts - spec.IdleWatts) / dynamic)
	if f > 1 {
		f = 1
	}
	return f
}

// JobFrequencySlowdown estimates a job's run-time dilation when its GPU is
// frequency-capped to keep the job's draw under targetWatts. Only the busy
// share of the run dilates: idle phases do not care about the clock.
func JobFrequencySlowdown(spec Spec, avgWatts, maxWatts, busyFrac, targetWatts float64) float64 {
	// Cap against the peak draw: frequency is a static setting, so it must
	// hold the worst phase under the target.
	f := FrequencyForPower(spec, maxWatts, targetWatts)
	if f <= 0 {
		return math.Inf(1)
	}
	if f >= 1 {
		return 1
	}
	if busyFrac < 0 {
		busyFrac = 0
	}
	if busyFrac > 1 {
		busyFrac = 1
	}
	_ = avgWatts
	return 1 + busyFrac*(1/f-1)
}
