// Package dist provides the deterministic random-number substrate used by
// every stochastic component in the repository: the workload generator, the
// utilization-profile synthesizer, and the scheduler's tie-breaking.
//
// All randomness flows through RNG, a SplitMix64 generator. SplitMix64 is
// chosen over math/rand because (a) its state is a single uint64 that can be
// split into independent child streams, letting each simulated user, job, and
// GPU own a private stream that does not perturb its siblings when the
// workload mix changes, and (b) it is trivially reproducible across Go
// versions, which math/rand's global source is not.
//
// On top of RNG the package implements the parametric distributions the
// workload calibration needs: lognormal (run times), bounded Pareto (per-user
// job counts), exponential (inter-arrival gaps, phase durations), uniform
// (PCIe bandwidths), triangular, categorical, and truncated/mixture
// combinators.
package dist

import "math"

// RNG is a deterministic SplitMix64 pseudo-random generator. The zero value
// is a valid generator seeded with 0; use New to seed explicitly and Split to
// derive independent child streams.
type RNG struct {
	state uint64
}

// New returns a generator seeded with seed. Two generators with the same seed
// produce identical streams.
func New(seed uint64) *RNG {
	return &RNG{state: seed}
}

// golden gamma constant used by SplitMix64.
const splitMixGamma = 0x9E3779B97F4A7C15

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += splitMixGamma
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Split derives an independent child generator. The child's stream is
// statistically independent of the parent's subsequent output, so a component
// can hand sub-streams to its parts without coupling their consumption.
func (r *RNG) Split() *RNG {
	// Mix the next output through a second round so that parent and child
	// never share raw state.
	s := r.Uint64()
	s = (s ^ (s >> 33)) * 0xFF51AFD7ED558CCD
	s ^= s >> 33
	return &RNG{state: s}
}

// StreamSeed derives the seed of the index-th independent substream of a
// root seed without consuming any generator state. Unlike Split, which
// advances the parent and therefore depends on call order, StreamSeed is a
// pure function of (root, index): stream i is the same no matter how many
// other streams were derived before it or on which goroutine. The parallel
// replication engine leans on this to make results bit-identical regardless
// of worker count — replication i always draws from Stream(root, i).
//
// The derivation runs the SplitMix64 finalizer twice over root offset by
// (index+1) gammas, the same double-mix construction Split uses, so sibling
// streams are statistically independent of each other and of a generator
// seeded directly with root.
func StreamSeed(root, index uint64) uint64 {
	s := root + (index+1)*splitMixGamma
	s = (s ^ (s >> 30)) * 0xBF58476D1CE4E5B9
	s = (s ^ (s >> 27)) * 0x94D049BB133111EB
	s ^= s >> 31
	s = (s ^ (s >> 33)) * 0xFF51AFD7ED558CCD
	s ^= s >> 33
	return s
}

// Stream returns a generator over the index-th independent substream of
// root; see StreamSeed for the determinism contract.
func Stream(root, index uint64) *RNG {
	return New(StreamSeed(root, index))
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	// Use the top 53 bits for a dyadic rational in [0,1).
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniform value in (0, 1); it never returns 0, which
// makes it safe to pass to log or inverse-CDF transforms.
func (r *RNG) Float64Open() float64 {
	for {
		v := r.Float64()
		if v > 0 {
			return v
		}
	}
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0, matching
// math/rand semantics.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("dist: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method: unbiased without divisions in
	// the common case.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	aLo, aHi := a&mask32, a>>32
	bLo, bHi := b&mask32, b>>32
	t := aLo * bLo
	lo = t & mask32
	carry := t >> 32
	t = aHi*bLo + carry
	mid1 := t & mask32
	hi = t >> 32
	t = aLo*bHi + mid1
	lo |= (t & mask32) << 32
	hi += aHi*bHi + t>>32
	return hi, lo
}

// NormFloat64 returns a standard normal variate (mean 0, stddev 1) using the
// Marsaglia polar method. Polar is preferred over Box-Muller here because it
// avoids trigonometric calls in the hot workload-generation path.
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// ExpFloat64 returns an exponential variate with rate 1 (mean 1).
func (r *RNG) ExpFloat64() float64 {
	return -math.Log(r.Float64Open())
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}
