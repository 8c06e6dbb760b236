package slurm

// This file preserves the pre-calendar-queue event structure — the global
// container/heap the simulator first ran on — as a read-only executable
// specification, like the naive specs in internal/cluster's and
// internal/core's tests. Setting Simulator.newEvents to naiveEventQueue runs
// a whole simulation on it (the differential harness drives heap and
// calendar runs over randomized workloads and asserts byte-identical stats,
// results and trace output), auditEventQueue shadows the calendar queue with
// it in lockstep, and FuzzCalQueue cross-checks the two under adversarial
// push/pop interleavings. The ordering contract both implementations must
// honor is event.before: time, then kind rank (capacity returns before
// capacity leaves before queue growth), then sequence number. It is test
// code only; no build of the package carries it.

import (
	"container/heap"
	"fmt"
)

// eventHeap orders events by event.before; see rank() for the same-instant
// contract.
type eventHeap []event

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(a, b int) bool { return h[a].before(h[b]) }
func (h eventHeap) Swap(a, b int)      { h[a], h[b] = h[b], h[a] }
func (h *eventHeap) Push(x any)        { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// heapEventQueue adapts the heap to the eventQueue interface. It is the
// spec: obviously correct, O(log n) per operation, one boxing allocation on
// every Push and Pop — exactly what the calendar queue exists to avoid.
type heapEventQueue struct{ h eventHeap }

// naiveNewEventQueue builds the reference queue over the initial events
// (read, not retained), the heap counterpart of newCalQueue.
func naiveNewEventQueue(events []event) *heapEventQueue {
	q := &heapEventQueue{h: append(eventHeap(nil), events...)}
	heap.Init(&q.h)
	return q
}

// Len returns the number of queued events.
func (q *heapEventQueue) Len() int { return q.h.Len() }

// Push enqueues an event.
func (q *heapEventQueue) Push(e event) { heap.Push(&q.h, e) }

// Pop dequeues the minimum event under the event.before order.
func (q *heapEventQueue) Pop() (event, bool) {
	if q.h.Len() == 0 {
		return event{}, false
	}
	return heap.Pop(&q.h).(event), true
}

// eventAudit runs the calendar queue shadowed by the heap spec, cross-
// checking every dequeue (it doubles all queue work): a divergence panics
// with both events, since it means the optimized queue would have replayed
// history in a different order.
type eventAudit struct {
	fast eventQueue
	spec eventQueue
}

// newEventAudit pairs the optimized queue with the reference queue.
func newEventAudit(fast, spec eventQueue) *eventAudit {
	return &eventAudit{fast: fast, spec: spec}
}

// Len returns the number of queued events.
func (a *eventAudit) Len() int { return a.fast.Len() }

// Push enqueues into both queues.
func (a *eventAudit) Push(e event) {
	a.fast.Push(e)
	a.spec.Push(e)
}

// Pop dequeues from both queues and asserts they agree.
func (a *eventAudit) Pop() (event, bool) {
	ef, okf := a.fast.Pop()
	es, oks := a.spec.Pop()
	if okf != oks || ef != es {
		panic(fmt.Sprintf("slurm: event queue audit: calendar queue popped %+v (ok=%v) but heap spec popped %+v (ok=%v)",
			ef, okf, es, oks))
	}
	return ef, okf
}

// naiveEventQueue is a Simulator.newEvents that runs the simulation on the
// heap spec alone.
func naiveEventQueue(initial []event) eventQueue { return naiveNewEventQueue(initial) }

// auditEventQueue is a Simulator.newEvents that runs the calendar queue in
// lockstep with the heap spec.
func auditEventQueue(initial []event) eventQueue {
	return newEventAudit(newCalQueue(initial), naiveNewEventQueue(initial))
}
