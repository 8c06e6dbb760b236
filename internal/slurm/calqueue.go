package slurm

// The calendar queue: the simulator's production event structure. A classic
// Brown calendar queue — a ring of time-bucketed event lists with a moving
// cursor — giving O(1) amortized enqueue and dequeue against the binary
// heap's O(log n), with no interface boxing on either operation (the heap
// spec pays one allocation per Push and one per Pop just converting events
// to and from `any`).
//
// Correctness does not depend on the bucket geometry: events carry a unique
// sequence number, so the order `event.before` defines is total, and any
// correct priority queue — this one, the heap spec in naive_test.go — pops
// the exact same sequence. The differential harness (differential_test.go),
// the lockstep audit tests, which re-check it pop by pop through a whole
// run, and the fuzz target (FuzzCalQueue) prove that equivalence.
//
// Geometry: nbuckets is a power of two near half the event count (about two
// events per bucket) and the bucket width spreads the live time span over
// one ring revolution. An event's bucket is its virtual index — the integer
// floor(t/width) — masked into the ring; the cursor advances through virtual
// indices, so the "same bucket, future year" test is an exact integer
// comparison with no floating-point boundary cases. Buckets are kept sorted
// (descending, next-to-pop last) so dequeue from the current bucket is O(1);
// the insert memmove touches about bucket-occupancy events. When a full ring
// revolution finds nothing (a sparse far-future tail, e.g. a lone node-
// repair event hours ahead), a direct search over bucket minima jumps the
// cursor instead of spinning. Resizes re-spread the queue when the size
// drifts a factor of two from the geometry; all of it is a pure function of
// the push/pop sequence, so runs stay deterministic.

import "sort"

const (
	// calMinBuckets floors the ring so small queues don't thrash resizes.
	calMinBuckets = 64
	// calMaxBuckets caps ring memory (2^21 bucket headers ≈ 48 MB).
	calMaxBuckets = 1 << 21
	// calVidxCap bounds the virtual index so extreme timestamps cannot
	// overflow the float→int conversion; events past the cap share one
	// far-future bucket and still sort correctly inside it.
	calVidxCap = int64(1) << 60
)

// calQueue is the calendar-queue implementation of eventQueue.
type calQueue struct {
	buckets  [][]event // ring; each bucket sorted descending (next pop last)
	mask     int64     // len(buckets)-1
	invWidth float64   // 1/bucket width
	size     int
	curVidx  int64   // cursor: virtual bucket index of the last pop
	lastTime float64 // time of the last pop (width estimation only)
	maxTime  float64 // max time ever enqueued (width estimation only)
}

// newCalQueue builds a queue over the initial events (read, not retained).
func newCalQueue(events []event) *calQueue {
	q := &calQueue{}
	q.init(events)
	return q
}

// Len returns the number of queued events.
func (q *calQueue) Len() int { return q.size }

// vidx maps a timestamp to its virtual bucket index.
func (q *calQueue) vidx(t float64) int64 {
	if t <= 0 {
		return 0
	}
	v := t * q.invWidth
	if v >= float64(calVidxCap) {
		return calVidxCap
	}
	return int64(v)
}

// Push enqueues an event.
func (q *calQueue) Push(e event) {
	if e.timeSec > q.maxTime {
		q.maxTime = e.timeSec
	}
	v := q.vidx(e.timeSec)
	if v < q.curVidx {
		// A push behind the cursor. The DES never does this (every push is
		// at or after the current simulation instant), but the fuzz harness
		// may; rewinding the cursor keeps the scan exact for any input.
		q.curVidx = v
	}
	b := int(v & q.mask)
	q.buckets[b] = insertEventDesc(q.buckets[b], e)
	q.size++
	if q.size > 2*len(q.buckets) && len(q.buckets) < calMaxBuckets {
		q.rebuild()
	}
}

// Pop dequeues the minimum event under the event.before order.
func (q *calQueue) Pop() (event, bool) {
	if q.size == 0 {
		return event{}, false
	}
	n := len(q.buckets)
	v := q.curVidx
	for scanned := 0; scanned < n; scanned++ {
		b := q.buckets[int(v&q.mask)]
		if k := len(b); k > 0 {
			e := b[k-1]
			if q.vidx(e.timeSec) <= v {
				q.buckets[int(v&q.mask)] = b[:k-1]
				q.take(e, v)
				return e, true
			}
		}
		v++
	}
	// A full revolution found only future-year events: the queue is sparse
	// relative to its span. Direct-search the bucket minima (each bucket's
	// tail) and jump the cursor to the winner.
	best := -1
	var bestE event
	for i := range q.buckets {
		if k := len(q.buckets[i]); k > 0 {
			if e := q.buckets[i][k-1]; best < 0 || e.before(bestE) {
				best, bestE = i, e
			}
		}
	}
	q.buckets[best] = q.buckets[best][:len(q.buckets[best])-1]
	q.take(bestE, q.vidx(bestE.timeSec))
	return bestE, true
}

// take commits a dequeue: cursor, width-estimation state, size, shrink.
func (q *calQueue) take(e event, v int64) {
	q.curVidx = v
	q.lastTime = e.timeSec
	q.size--
	if 8*q.size < len(q.buckets) && len(q.buckets) > calMinBuckets {
		q.rebuild()
	}
}

// rebuild re-spreads the queue into fresh geometry for its current size.
func (q *calQueue) rebuild() {
	all := make([]event, 0, q.size)
	for _, b := range q.buckets {
		all = append(all, b...)
	}
	q.init(all)
}

// init distributes events into a ring sized and widthed for them. It is the
// only place geometry is chosen: nbuckets ≈ size/2 (power of two) and width
// spreads the live span over one revolution, targeting about two events per
// bucket. Both inputs — the event set and the cursor — are pure functions
// of the push/pop history, so identical runs build identical rings.
func (q *calQueue) init(all []event) {
	nb := nextPow2(len(all) / 2)
	if nb < calMinBuckets {
		nb = calMinBuckets
	}
	if nb > calMaxBuckets {
		nb = calMaxBuckets
	}
	q.buckets = make([][]event, nb)
	q.mask = int64(nb - 1)
	q.size = len(all)

	var minT, maxT float64
	for i := range all {
		t := all[i].timeSec
		if i == 0 || t < minT {
			minT = t
		}
		if i == 0 || t > maxT {
			maxT = t
		}
	}
	q.maxTime = maxT
	width := (maxT - minT) / float64(nb)
	if width <= 1e-9 {
		width = 1
	}
	q.invWidth = 1 / width
	q.curVidx = q.vidx(minT)
	q.lastTime = minT

	// Counting-sort the events into one flat backing array and slice it into
	// buckets with cap==len, so distribution costs two passes and a single
	// allocation instead of an append per event. The full-slice caps mean the
	// first later insert into a bucket reallocates it — after which pops free
	// tail capacity and steady-state inserts stay in place.
	counts := make([]int, nb)
	for i := range all {
		counts[int(q.vidx(all[i].timeSec)&q.mask)]++
	}
	flat := make([]event, len(all))
	off := 0
	for b, c := range counts {
		if c == 0 {
			continue
		}
		q.buckets[b] = flat[off : off : off+c]
		off += c
	}
	for i := range all {
		b := int(q.vidx(all[i].timeSec) & q.mask)
		n := len(q.buckets[b])
		q.buckets[b] = q.buckets[b][:n+1]
		q.buckets[b][n] = all[i]
	}
	for b := range q.buckets {
		sortEventsDesc(q.buckets[b])
	}
}

// insertEventDesc places e into a descending-sorted bucket (binary search
// plus a memmove of, on average, half the bucket — a handful of events at
// the target occupancy).
func insertEventDesc(b []event, e event) []event {
	lo, hi := 0, len(b)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b[mid].before(e) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	b = append(b, event{})
	copy(b[lo+1:], b[lo:])
	b[lo] = e
	return b
}

// sortEventsDesc sorts a bucket descending (next pop last): insertion sort
// for the common tiny bucket, sort.Slice for pathological pile-ups.
func sortEventsDesc(b []event) {
	if len(b) <= 48 {
		for i := 1; i < len(b); i++ {
			for j := i; j > 0 && b[j-1].before(b[j]); j-- {
				b[j], b[j-1] = b[j-1], b[j]
			}
		}
		return
	}
	sort.Slice(b, func(i, j int) bool { return b[j].before(b[i]) })
}

// nextPow2 returns the smallest power of two ≥ n (and ≥ 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
