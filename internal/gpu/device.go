// Package gpu models the GPU hardware substrate of the Supercloud system:
// device specifications (Nvidia Volta V100), per-device allocation state,
// the utilization→power model used to synthesize realistic power draws, power
// capping, and a MIG-style partitioner for the co-location discussion in the
// paper's §VIII.
//
// The model is deliberately behavioral, not microarchitectural: the paper's
// analyses consume utilization percentages and watts, so the device exposes
// exactly those observables.
package gpu

import "fmt"

// Spec describes a GPU model. All bandwidth figures are theoretical peaks;
// utilization percentages in the monitoring stream are relative to these.
type Spec struct {
	Name        string
	SMCount     int     // number of streaming multiprocessors
	MemoryGB    float64 // HBM capacity
	MemBWGBps   float64 // peak memory bandwidth
	PCIeGBps    float64 // peak PCIe bandwidth per direction
	TDPWatts    float64 // maximum board power
	IdleWatts   float64 // idle board power
	PerfScore   float64 // relative throughput score (V100 = 1.0), used by the two-tier study
	PriceUSD    float64 // indicative acquisition price, used by the two-tier study
	MIGCapable  bool    // whether the device supports MIG partitioning
	MaxMIGSlice int     // number of MIG compute slices when capable
}

// V100 returns the specification of the Nvidia Volta V100 SXM2 32 GB, the
// GPU installed in all 224 Supercloud nodes (Table I).
func V100() Spec {
	return Spec{
		Name:      "V100",
		SMCount:   80,
		MemoryGB:  32,
		MemBWGBps: 900,
		PCIeGBps:  16,
		TDPWatts:  300,
		IdleWatts: 25,
		PerfScore: 1.0,
		PriceUSD:  10000,
	}
}

// A100 returns the specification of an Nvidia A100 80 GB, used by the
// two-tier and MIG extension studies as the "fast tier" device.
func A100() Spec {
	return Spec{
		Name:        "A100",
		SMCount:     108,
		MemoryGB:    80,
		MemBWGBps:   2039,
		PCIeGBps:    32,
		TDPWatts:    400,
		IdleWatts:   50,
		PerfScore:   2.5,
		PriceUSD:    16000,
		MIGCapable:  true,
		MaxMIGSlice: 7,
	}
}

// T4 returns the specification of an Nvidia T4, used by the two-tier study
// as the inexpensive "slow tier" device for exploratory/IDE jobs.
func T4() Spec {
	return Spec{
		Name:      "T4",
		SMCount:   40,
		MemoryGB:  16,
		MemBWGBps: 300,
		PCIeGBps:  16,
		TDPWatts:  70,
		IdleWatts: 10,
		PerfScore: 0.3,
		PriceUSD:  2500,
	}
}

// DeviceID identifies one physical GPU in the cluster.
type DeviceID struct {
	Node  int // node index in [0, NumNodes)
	Index int // GPU index within the node
}

// String renders the ID as node:gpu.
func (d DeviceID) String() string { return fmt.Sprintf("n%d:g%d", d.Node, d.Index) }

// Device is one physical GPU with its allocation state. Devices
// are not safe for concurrent mutation; the scheduler owns them.
type Device struct {
	ID   DeviceID
	Spec Spec

	allocatedTo int64 // job ID, or FreeDevice
}

// FreeDevice is the sentinel job ID of an unallocated device.
const FreeDevice int64 = -1

// NewDevice creates a free device with the given identity and spec.
func NewDevice(id DeviceID, spec Spec) *Device {
	return &Device{ID: id, Spec: spec, allocatedTo: FreeDevice}
}

// Free reports whether the device is unallocated.
func (d *Device) Free() bool { return d.allocatedTo == FreeDevice }

// AllocatedTo returns the owning job ID, or FreeDevice.
func (d *Device) AllocatedTo() int64 { return d.allocatedTo }

// Allocate assigns the device to jobID. It returns an error if the device is
// already allocated — the scheduler invariant "Supercloud does not co-locate
// jobs on the same GPU" is enforced here.
func (d *Device) Allocate(jobID int64) error {
	if jobID < 0 {
		return fmt.Errorf("gpu: invalid job id %d", jobID)
	}
	if !d.Free() {
		return fmt.Errorf("gpu: device %s already allocated to job %d", d.ID, d.allocatedTo)
	}
	d.allocatedTo = jobID
	return nil
}

// Release frees the device. Releasing a free device is an error because it
// indicates double-accounting in the scheduler.
func (d *Device) Release() error {
	if d.Free() {
		return fmt.Errorf("gpu: device %s released while free", d.ID)
	}
	d.allocatedTo = FreeDevice
	return nil
}

// Utilization is an instantaneous utilization state of one GPU, all values
// percentages of the device's capacity.
type Utilization struct {
	SMPct      float64
	MemPct     float64
	MemSizePct float64
	PCIeTxPct  float64
	PCIeRxPct  float64
}

// Clamp bounds every field into [0, 100] in place and returns the receiver
// for chaining.
func (u *Utilization) Clamp() *Utilization {
	u.SMPct = clampPct(u.SMPct)
	u.MemPct = clampPct(u.MemPct)
	u.MemSizePct = clampPct(u.MemSizePct)
	u.PCIeTxPct = clampPct(u.PCIeTxPct)
	u.PCIeRxPct = clampPct(u.PCIeRxPct)
	return u
}

// clampPct bounds v into [0, 100]; NaN passes through.
func clampPct(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 100 {
		return 100
	}
	return v
}
