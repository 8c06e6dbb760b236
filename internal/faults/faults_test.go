package faults

import (
	"math"
	"testing"
)

func TestPlanEmptyAndValidate(t *testing.T) {
	if !(Plan{}).Empty() {
		t.Fatal("zero plan should be empty")
	}
	if (Plan{GPUFatalMTBFHours: 500}).Empty() {
		t.Fatal("GPU-fatal plan should not be empty")
	}
	if err := (Plan{GPUFatalMTBFHours: 500}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Plan{NodeCrashMTBFHours: 100}).Validate(); err == nil {
		t.Fatal("crash plan without repair time should fail validation")
	}
	if err := (Plan{NodeCrashMTBFHours: -1, MeanRepairHours: 1}).Validate(); err == nil {
		t.Fatal("negative rate should fail validation")
	}
	if err := (Plan{NodeCrashMTBFHours: 100, MeanRepairHours: 2}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInjectorDeterministic(t *testing.T) {
	plan := Plan{NodeCrashMTBFHours: 50, NodeDrainMTBFHours: 200, MeanRepairHours: 4}
	a := Generate(plan, 8, 30*86400, 7)
	b := Generate(plan, 8, 30*86400, 7)
	if len(a) == 0 {
		t.Fatal("expected events over a 30-day horizon at 50h MTBF")
	}
	if len(a) != len(b) {
		t.Fatalf("replay length diverged: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := Generate(plan, 8, 30*86400, 8)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

// TestInjectorStreamsIndependent pins the per-node stream isolation: node 3's
// events are identical whether or not other nodes consumed their streams.
func TestInjectorStreamsIndependent(t *testing.T) {
	plan := Plan{NodeCrashMTBFHours: 20, MeanRepairHours: 1}
	solo := NewInjector(plan, 8, 42)
	busy := NewInjector(plan, 8, 42)
	// Exhaust other nodes' streams on the busy injector first.
	for n := 0; n < 8; n++ {
		if n == 3 {
			continue
		}
		for i := 0; i < 10; i++ {
			busy.Next(n, float64(i))
		}
	}
	for i := 0; i < 5; i++ {
		a, okA := solo.Next(3, float64(i)*1000)
		b, okB := busy.Next(3, float64(i)*1000)
		if okA != okB || a != b {
			t.Fatalf("node 3 stream depends on sibling consumption: %+v vs %+v", a, b)
		}
	}
}

func TestInjectorRepairAndOrdering(t *testing.T) {
	plan := Plan{NodeCrashMTBFHours: 10, MeanRepairHours: 2}
	evs := Generate(plan, 4, 20*86400, 1)
	for i, ev := range evs {
		if ev.RepairSec <= 0 {
			t.Fatalf("event %d: non-positive repair %v", i, ev.RepairSec)
		}
		if ev.Kind != Crash {
			t.Fatalf("event %d: drain from a crash-only plan", i)
		}
		if i > 0 && ev.TimeSec < evs[i-1].TimeSec {
			t.Fatalf("events out of order at %d", i)
		}
	}
}

func TestInjectorDrainOnly(t *testing.T) {
	plan := Plan{NodeDrainMTBFHours: 10, MeanRepairHours: 1}
	for _, ev := range Generate(plan, 4, 20*86400, 1) {
		if ev.Kind != Drain {
			t.Fatal("crash from a drain-only plan")
		}
	}
	in := NewInjector(Plan{GPUFatalMTBFHours: 500}, 4, 1)
	if _, ok := in.Next(0, 0); ok {
		t.Fatal("GPU-only plan should produce no node events")
	}
}

func TestAttemptFatalPure(t *testing.T) {
	plan := Plan{GPUFatalMTBFHours: 500}
	off1, ok1 := AttemptFatal(plan, 7, 1234, 2, 4, 1e9)
	off2, ok2 := AttemptFatal(plan, 7, 1234, 2, 4, 1e9)
	if ok1 != ok2 || off1 != off2 {
		t.Fatal("AttemptFatal is not a pure function of its inputs")
	}
	if !ok1 {
		t.Fatal("a 1e9-second attempt at 500h MTBF must fail")
	}
	// Different attempts of the same job re-roll.
	off3, _ := AttemptFatal(plan, 7, 1234, 3, 4, 1e9)
	if off3 == off1 {
		t.Fatal("attempts share a fatal draw")
	}
	if _, ok := AttemptFatal(plan, 7, 1, 0, 0, 1e9); ok {
		t.Fatal("zero-GPU attempt cannot draw a GPU fatal")
	}
	if _, ok := AttemptFatal(Plan{}, 7, 1, 0, 4, 1e9); ok {
		t.Fatal("disabled process produced a fatal")
	}
}

// TestAttemptFatalRate checks the empirical kill probability of short
// attempts against 1-exp(-G·t/MTBF).
func TestAttemptFatalRate(t *testing.T) {
	plan := Plan{GPUFatalMTBFHours: 500}
	const (
		gpus       = 2
		attemptSec = 100 * 3600 // 100h wall on 2 GPUs
		n          = 20000
	)
	kills := 0
	for j := int64(0); j < n; j++ {
		if _, ok := AttemptFatal(plan, 99, j, 0, gpus, attemptSec); ok {
			kills++
		}
	}
	want := 1 - math.Exp(-float64(gpus)*100/500)
	got := float64(kills) / n
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("empirical kill probability %.4f, want %.4f ± 0.01", got, want)
	}
}

func TestCrashDrainMix(t *testing.T) {
	plan := Plan{NodeCrashMTBFHours: 20, NodeDrainMTBFHours: 20, MeanRepairHours: 1}
	crashes, drains := 0, 0
	for _, ev := range Generate(plan, 16, 60*86400, 5) {
		if ev.Kind == Crash {
			crashes++
		} else {
			drains++
		}
	}
	if crashes == 0 || drains == 0 {
		t.Fatalf("equal-rate mix produced crashes=%d drains=%d", crashes, drains)
	}
}

// Generate materializes every node outage up to horizonSec as a single
// time-sorted stream, assuming each outage repairs before the next is drawn:
// the eager form of the lazy Injector the simulator uses.
func Generate(p Plan, nodes int, horizonSec float64, seed uint64) []NodeEvent {
	in := NewInjector(p, nodes, seed)
	var out []NodeEvent
	for node := 0; node < nodes; node++ {
		now := 0.0
		for {
			ev, ok := in.Next(node, now)
			if !ok || ev.TimeSec > horizonSec {
				break
			}
			out = append(out, ev)
			now = ev.TimeSec + ev.RepairSec
		}
	}
	// Stable order: time, then node (a node's own events are already sorted).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && (out[j].TimeSec < out[j-1].TimeSec ||
			(out[j].TimeSec == out[j-1].TimeSec && out[j].Node < out[j-1].Node)); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
