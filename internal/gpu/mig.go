package gpu

import (
	"fmt"
	"sort"
)

// MIGProfile is one Multi-Instance-GPU slice shape: a number of compute
// slices and a memory share. On an A100 the compute dimension has 7 slices.
type MIGProfile struct {
	Name          string
	ComputeSlices int
	MemoryGB      float64
}

// StandardMIGProfiles returns the A100-80GB slice catalogue.
func StandardMIGProfiles() []MIGProfile {
	return []MIGProfile{
		{Name: "1g.10gb", ComputeSlices: 1, MemoryGB: 10},
		{Name: "2g.20gb", ComputeSlices: 2, MemoryGB: 20},
		{Name: "3g.40gb", ComputeSlices: 3, MemoryGB: 40},
		{Name: "4g.40gb", ComputeSlices: 4, MemoryGB: 40},
		{Name: "7g.80gb", ComputeSlices: 7, MemoryGB: 80},
	}
}

// MIGInstance is a carved slice that may hold one tenant job.
type MIGInstance struct {
	Profile MIGProfile
	JobID   int64 // FreeDevice when vacant
}

// MIGPartitioner manages the slice layout of one MIG-capable device. It
// models the operational friction the paper's §VIII highlights: the device
// must be idle to repartition, and each reconfiguration costs wall-clock
// seconds (checkpoint + reset + restore).
type MIGPartitioner struct {
	spec      Spec
	instances []MIGInstance
	// ResetCostSec is charged by Repartition; the paper reports "up to a few
	// seconds with user intervention".
	ResetCostSec float64
	// totalResets counts repartitions, exposed for the what-if study.
	totalResets int
}

// NewMIGPartitioner creates a partitioner for a MIG-capable device spec. It
// returns an error for non-MIG devices.
func NewMIGPartitioner(spec Spec) (*MIGPartitioner, error) {
	if !spec.MIGCapable {
		return nil, fmt.Errorf("gpu: %s is not MIG-capable", spec.Name)
	}
	return &MIGPartitioner{spec: spec, ResetCostSec: 3}, nil
}

// Resets returns how many repartitions have occurred.
func (p *MIGPartitioner) Resets() int { return p.totalResets }

// Busy reports whether any slice currently hosts a job.
func (p *MIGPartitioner) Busy() bool {
	for _, in := range p.instances {
		if in.JobID != FreeDevice {
			return true
		}
	}
	return false
}

// Repartition replaces the slice layout. It fails when any slice is occupied
// (hardware constraint: "resetting MIG configurations require GPUs to be
// idle") or when the requested profiles exceed the device's compute slices
// or memory. It returns the reset cost charged, in seconds.
func (p *MIGPartitioner) Repartition(profiles []MIGProfile) (costSec float64, err error) {
	if p.Busy() {
		return 0, fmt.Errorf("gpu: cannot repartition %s while slices are occupied", p.spec.Name)
	}
	var slices int
	var mem float64
	for _, pr := range profiles {
		if pr.ComputeSlices < 1 {
			return 0, fmt.Errorf("gpu: profile %s has no compute slices", pr.Name)
		}
		slices += pr.ComputeSlices
		mem += pr.MemoryGB
	}
	if slices > p.spec.MaxMIGSlice {
		return 0, fmt.Errorf("gpu: layout needs %d compute slices, device has %d", slices, p.spec.MaxMIGSlice)
	}
	if mem > p.spec.MemoryGB {
		return 0, fmt.Errorf("gpu: layout needs %.0f GB, device has %.0f GB", mem, p.spec.MemoryGB)
	}
	p.instances = make([]MIGInstance, len(profiles))
	for i, pr := range profiles {
		p.instances[i] = MIGInstance{Profile: pr, JobID: FreeDevice}
	}
	p.totalResets++
	return p.ResetCostSec, nil
}

// PackLayout chooses a slice layout covering demands (each demand is a
// compute-slice count) with minimal waste, by first-fit-decreasing over the
// standard profile catalogue. It returns the chosen profiles, or an error if
// the total demand exceeds the device.
func PackLayout(spec Spec, demands []int) ([]MIGProfile, error) {
	if !spec.MIGCapable {
		return nil, fmt.Errorf("gpu: %s is not MIG-capable", spec.Name)
	}
	total := 0
	for _, d := range demands {
		if d < 1 {
			return nil, fmt.Errorf("gpu: demand %d invalid", d)
		}
		total += d
	}
	if total > spec.MaxMIGSlice {
		return nil, fmt.Errorf("gpu: demands need %d slices, device has %d", total, spec.MaxMIGSlice)
	}
	catalogue := StandardMIGProfiles()
	sorted := append([]int(nil), demands...)
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
	var layout []MIGProfile
	memLeft := spec.MemoryGB
	for _, d := range sorted {
		// Smallest catalogue profile with >= d compute slices and memory
		// still available.
		placed := false
		for _, pr := range catalogue {
			if pr.ComputeSlices >= d && pr.MemoryGB <= memLeft {
				layout = append(layout, pr)
				memLeft -= pr.MemoryGB
				placed = true
				break
			}
		}
		if !placed {
			return nil, fmt.Errorf("gpu: cannot fit demand %d within remaining %.0f GB", d, memLeft)
		}
	}
	return layout, nil
}
