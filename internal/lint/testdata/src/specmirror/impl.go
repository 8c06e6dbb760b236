package specmirror

// Sum is the optimized counterpart of naiveSum.
func Sum(xs []int) int {
	n := 0
	for i := 0; i < len(xs); i++ {
		n += xs[i]
	}
	return n
}

// fastScale is the optimized counterpart named by naiveScale's Mirrors line.
func fastScale(xs []int, k int) []int {
	out := make([]int, len(xs))
	for i := range xs {
		out[i] = xs[i] * k
	}
	return out
}

// Loose is naiveLoose's counterpart; the pair is still unanchored because no
// test references the spec.
func Loose(xs []int) int {
	n := 1
	for i := range xs {
		n *= xs[i]
	}
	return n
}

// FooCols only looks like naiveFoo's counterpart: the analyzer matches the
// spec name without the prefix, not with a suffix added.
func FooCols(xs []int) int { return len(xs) }
