// Package specmirror exercises the naive.go spec-mirror analyzer.
package specmirror

// naiveSum is the reference spec for Sum: mechanical counterpart name,
// anchored by the equivalence test. Clean.
func naiveSum(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

// naiveScale is the reference spec for the scaling path.
//
// Mirrors: fastScale
func naiveScale(xs []int, k int) []int {
	out := make([]int, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

// naiveOrphan has no optimized counterpart anywhere in the package.
func naiveOrphan(xs []int) int { // want `spec naiveOrphan has no optimized counterpart Orphan \(or orphan\) in this package`
	if len(xs) == 0 {
		return 0
	}
	return xs[0]
}

// naiveFoo's only candidate is FooCols: a suffixed name is not a
// counterpart, so a spec must mirror the unsuffixed name or say Mirrors.
func naiveFoo(xs []int) int { // want `spec naiveFoo has no optimized counterpart Foo \(or foo\) in this package`
	return len(xs)
}

// naiveGhost points its Mirrors directive at a function that is gone.
//
// Mirrors: vanishedImpl
func naiveGhost(xs []int) int { // want `spec naiveGhost declares "Mirrors: vanishedImpl" but vanishedImpl is not declared in this package`
	return len(xs)
}

// naiveLoose has a counterpart but no test ever reaches it, so no
// equivalence test can be auditing it.
func naiveLoose(xs []int) int { // want `spec naiveLoose is not reachable from any \*_test\.go in this package`
	n := 1
	for _, x := range xs {
		n *= x
	}
	return n
}
