package gpu

import (
	"fmt"
	"testing"
)

func TestMIGRequiresCapableDevice(t *testing.T) {
	if _, err := NewMIGPartitioner(V100()); err == nil {
		t.Fatal("V100 accepted for MIG")
	}
	if _, err := NewMIGPartitioner(A100()); err != nil {
		t.Fatal(err)
	}
}

func TestMIGRepartitionAndPlace(t *testing.T) {
	p, err := NewMIGPartitioner(A100())
	if err != nil {
		t.Fatal(err)
	}
	cost, err := p.Repartition([]MIGProfile{
		{Name: "3g.40gb", ComputeSlices: 3, MemoryGB: 40},
		{Name: "2g.20gb", ComputeSlices: 2, MemoryGB: 20},
		{Name: "1g.10gb", ComputeSlices: 1, MemoryGB: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if cost <= 0 {
		t.Fatalf("repartition cost = %v, want positive", cost)
	}
	if p.Resets() != 1 {
		t.Fatalf("resets = %d", p.Resets())
	}
	// Smallest-fit placement: a 1-slice job should land on the 1g instance.
	idx, err := p.Place(7, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Instances()[idx].Profile.ComputeSlices; got != 1 {
		t.Fatalf("placed on %d-slice instance, want 1", got)
	}
	if !p.Busy() {
		t.Fatal("partitioner not busy after placement")
	}
	// Repartition while busy is the hardware constraint from §VIII.
	if _, err := p.Repartition(nil); err == nil {
		t.Fatal("repartition allowed while busy")
	}
	if err := p.Evict(7); err != nil {
		t.Fatal(err)
	}
	if err := p.Evict(7); err == nil {
		t.Fatal("double evict allowed")
	}
}

func TestMIGRepartitionValidation(t *testing.T) {
	p, _ := NewMIGPartitioner(A100())
	// 8 compute slices on a 7-slice part.
	if _, err := p.Repartition([]MIGProfile{
		{Name: "7g", ComputeSlices: 7, MemoryGB: 40},
		{Name: "1g", ComputeSlices: 1, MemoryGB: 10},
	}); err == nil {
		t.Fatal("over-sliced layout accepted")
	}
	// 120 GB memory on an 80 GB part.
	if _, err := p.Repartition([]MIGProfile{
		{Name: "a", ComputeSlices: 3, MemoryGB: 60},
		{Name: "b", ComputeSlices: 3, MemoryGB: 60},
	}); err == nil {
		t.Fatal("over-memory layout accepted")
	}
	if _, err := p.Repartition([]MIGProfile{{Name: "zero", ComputeSlices: 0}}); err == nil {
		t.Fatal("zero-slice profile accepted")
	}
}

func TestMIGPlaceNoFit(t *testing.T) {
	p, _ := NewMIGPartitioner(A100())
	if _, err := p.Repartition([]MIGProfile{{Name: "1g.10gb", ComputeSlices: 1, MemoryGB: 10}}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Place(1, 4, 10); err == nil {
		t.Fatal("oversized job placed")
	}
	if _, err := p.Place(1, 1, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Place(2, 1, 10); err == nil {
		t.Fatal("placement on occupied slice allowed")
	}
}

func TestPackLayout(t *testing.T) {
	layout, err := PackLayout(A100(), []int{3, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	var slices int
	for _, pr := range layout {
		slices += pr.ComputeSlices
	}
	if slices > 7 {
		t.Fatalf("layout uses %d slices", slices)
	}
	if len(layout) != 3 {
		t.Fatalf("layout has %d profiles, want 3", len(layout))
	}
	if _, err := PackLayout(A100(), []int{7, 1}); err == nil {
		t.Fatal("over-demand accepted")
	}
	if _, err := PackLayout(V100(), []int{1}); err == nil {
		t.Fatal("non-MIG device accepted")
	}
	if _, err := PackLayout(A100(), []int{0}); err == nil {
		t.Fatal("zero demand accepted")
	}
}

// Place assigns a job to the smallest vacant slice satisfying its demands.
// It returns the slice index, or an error when nothing fits.
func (p *MIGPartitioner) Place(jobID int64, computeSlices int, memoryGB float64) (int, error) {
	best := -1
	for i, in := range p.instances {
		if in.JobID != FreeDevice {
			continue
		}
		if in.Profile.ComputeSlices < computeSlices || in.Profile.MemoryGB < memoryGB {
			continue
		}
		if best == -1 || p.instances[i].Profile.ComputeSlices < p.instances[best].Profile.ComputeSlices {
			best = i
		}
	}
	if best == -1 {
		return 0, fmt.Errorf("gpu: no vacant MIG slice fits %dc/%.0fGB", computeSlices, memoryGB)
	}
	p.instances[best].JobID = jobID
	return best, nil
}

// Evict frees the slice holding jobID. It is an error if the job is absent.
func (p *MIGPartitioner) Evict(jobID int64) error {
	for i := range p.instances {
		if p.instances[i].JobID == jobID {
			p.instances[i].JobID = FreeDevice
			return nil
		}
	}
	return fmt.Errorf("gpu: job %d not placed on this device", jobID)
}

// Instances returns the current slice layout.
func (p *MIGPartitioner) Instances() []MIGInstance {
	return append([]MIGInstance(nil), p.instances...)
}
