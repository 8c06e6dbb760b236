package specmirror

import "testing"

// TestEquivalence anchors naiveSum, naiveScale, naiveOrphan, naiveFoo and
// naiveGhost (the latter three still fail the counterpart checks). naiveLoose is
// deliberately absent.
func TestEquivalence(t *testing.T) {
	xs := []int{3, 1, 2}
	if naiveSum(xs) != Sum(xs) {
		t.Fatal("sum mismatch")
	}
	a, b := naiveScale(xs, 2), fastScale(xs, 2)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("scale mismatch")
		}
	}
	_ = naiveOrphan(xs)
	_ = naiveFoo(xs)
	_ = FooCols(xs)
	_ = naiveGhost(xs)
}
