package dist

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("streams diverged at step %d: %d != %d", i, av, bv)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// Child continuing must not equal parent continuing.
	if child.Uint64() == parent.Uint64() {
		t.Fatal("split child mirrors parent stream")
	}
	// Splitting twice from identical parents is reproducible.
	p1, p2 := New(99), New(99)
	c1, c2 := p1.Split(), p2.Split()
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatal("split is not deterministic")
		}
	}
}

func TestSplitN(t *testing.T) {
	kids := New(5).SplitN(8)
	if len(kids) != 8 {
		t.Fatalf("SplitN returned %d streams, want 8", len(kids))
	}
	seen := map[uint64]bool{}
	for _, k := range kids {
		v := k.Uint64()
		if seen[v] {
			t.Fatal("two child streams emitted the same first value")
		}
		seen[v] = true
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64OpenNeverZero(t *testing.T) {
	r := New(11)
	for i := 0; i < 10000; i++ {
		if r.Float64Open() == 0 {
			t.Fatal("Float64Open returned 0")
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(17)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean %.4f too far from 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(23)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		if c < 8000 || c > 12000 {
			t.Fatalf("Intn bucket %d count %d not near uniform 10000", i, c)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(31)
	var sum, sumSq float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %.4f too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance %.4f too far from 1", variance)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := New(37)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Fatalf("exponential mean %.4f too far from 1", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(41)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("Perm produced invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(43)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) hit rate %.4f", frac)
	}
}

// Property: mul64 agrees with big-integer multiplication for the low 64 bits
// and the product is monotone in each operand's high bits.
func TestMul64Property(t *testing.T) {
	f := func(a, b uint64) bool {
		hi, lo := mul64(a, b)
		// Check lo against native wrap-around multiplication.
		if lo != a*b {
			return false
		}
		// Check hi using 32-bit decomposition reference.
		refHi := refMulHi(a, b)
		return hi == refHi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func refMulHi(a, b uint64) uint64 {
	const mask = 1<<32 - 1
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	carry := (aLo*bLo)>>32 + (aHi*bLo)&mask + (aLo*bHi)&mask
	return aHi*bHi + (aHi*bLo)>>32 + (aLo*bHi)>>32 + carry>>32
}

// Property: Shuffle preserves the multiset of elements.
func TestShuffleProperty(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		size := int(n%64) + 1
		vals := make([]int, size)
		for i := range vals {
			vals[i] = i * 3
		}
		r := New(seed)
		r.Shuffle(size, func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
		seen := map[int]bool{}
		for _, v := range vals {
			if v%3 != 0 || seen[v] {
				return false
			}
			seen[v] = true
		}
		return len(seen) == size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamSeedOrderIndependence(t *testing.T) {
	// Stream i is a pure function of (root, index): deriving streams in any
	// order, interleaved or not, yields the same seeds.
	forward := make([]uint64, 16)
	for i := range forward {
		forward[i] = StreamSeed(123, uint64(i))
	}
	for i := len(forward) - 1; i >= 0; i-- {
		if got := StreamSeed(123, uint64(i)); got != forward[i] {
			t.Fatalf("stream %d seed changed with derivation order: %d != %d", i, got, forward[i])
		}
	}
}

func TestStreamSeedsDistinct(t *testing.T) {
	seen := map[uint64]uint64{}
	for root := uint64(0); root < 4; root++ {
		for i := uint64(0); i < 1024; i++ {
			s := StreamSeed(root, i)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: StreamSeed(%d,%d) == earlier stream %d", root, i, prev)
			}
			seen[s] = i
		}
	}
}

func TestStreamIndependentOfRootGenerator(t *testing.T) {
	// A stream must not mirror a generator seeded directly with the root,
	// and sibling streams must not mirror each other.
	root := uint64(77)
	direct := New(root)
	s0, s1 := Stream(root, 0), Stream(root, 1)
	for i := 0; i < 100; i++ {
		d, a, b := direct.Uint64(), s0.Uint64(), s1.Uint64()
		if a == d || b == d || a == b {
			t.Fatalf("correlated streams at step %d", i)
		}
	}
}

// SplitN derives n independent child generators.
func (r *RNG) SplitN(n int) []*RNG {
	out := make([]*RNG, n)
	for i := range out {
		out[i] = r.Split()
	}
	return out
}

// Shuffle pseudo-randomly permutes the order of n elements using the provided
// swap function (Fisher-Yates).
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}
