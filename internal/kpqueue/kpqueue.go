// Package kpqueue implements Kogan and Petrank's wait-free FIFO queue
// (PPoPP 2011), the wait-free variant of the Michael-Scott queue that the
// LCRQ paper's related-work section cites as having "similar performance
// characteristics" to the MS queue.
//
// Every operation announces itself in a per-thread state array with a
// monotonically increasing phase number; all threads help pending
// operations with phases at most their own, so each operation completes
// within a bounded number of steps by any thread — wait-freedom, at the
// cost of O(T) helping scans that keep the algorithm from scaling.
//
// The implementation follows the paper's pseudocode structure (help,
// help_enq, help_finish_enq, help_deq, help_finish_deq) with Go
// atomic.Pointer descriptors in place of Java AtomicReferences.
package kpqueue

import (
	"sync"
	"sync/atomic"

	"lcrq/internal/instrument"
	"lcrq/internal/pad"
)

type node struct {
	value  uint64
	enqTid int32
	deqTid atomic.Int32
	next   atomic.Pointer[node]
}

// opDesc describes one announced operation. Descriptors are immutable;
// state transitions replace the whole descriptor with CAS.
type opDesc struct {
	phase   int64
	pending bool
	enqueue bool
	node    *node
}

// Queue is a wait-free MPMC FIFO queue for a fixed maximum number of
// threads (handles).
//
//lcrq:padded
type Queue struct {
	head  atomic.Pointer[node]
	_     pad.Line
	tail  atomic.Pointer[node]
	_     pad.Line
	state []paddedDesc

	mu      sync.Mutex
	nextTid int32
}

//lcrq:padded
type paddedDesc struct {
	d atomic.Pointer[opDesc]
	_ pad.Line
}

// New returns an empty queue supporting up to maxThreads concurrent
// handles.
func New(maxThreads int) *Queue {
	if maxThreads < 1 {
		panic("kpqueue: maxThreads must be positive")
	}
	q := &Queue{state: make([]paddedDesc, maxThreads)}
	sentinel := &node{enqTid: -1}
	sentinel.deqTid.Store(-1)
	q.head.Store(sentinel)
	q.tail.Store(sentinel)
	initial := &opDesc{phase: -1, pending: false, enqueue: true}
	for i := range q.state {
		q.state[i].d.Store(initial)
	}
	return q
}

// Handle is a thread's identity in the state array. Handles are limited to
// the maxThreads passed to New; NewHandle panics beyond that.
type Handle struct {
	C   instrument.Counters
	q   *Queue
	tid int32
}

// NewHandle allocates a thread slot.
func (q *Queue) NewHandle() *Handle {
	q.mu.Lock()
	defer q.mu.Unlock()
	if int(q.nextTid) >= len(q.state) {
		panic("kpqueue: more handles than maxThreads")
	}
	h := &Handle{q: q, tid: q.nextTid}
	q.nextTid++
	return h
}

func (q *Queue) maxPhase() int64 {
	max := int64(-1)
	for i := range q.state {
		if p := q.state[i].d.Load().phase; p > max {
			max = p
		}
	}
	return max
}

func (q *Queue) isStillPending(tid int32, phase int64) bool {
	d := q.state[tid].d.Load()
	return d.pending && d.phase <= phase
}

// Enqueue appends v.
func (q *Queue) Enqueue(h *Handle, v uint64) {
	phase := q.maxPhase() + 1
	n := &node{value: v, enqTid: h.tid}
	n.deqTid.Store(-1)
	q.state[h.tid].d.Store(&opDesc{phase: phase, pending: true, enqueue: true, node: n})
	q.help(h, phase)
	q.helpFinishEnq(h)
	h.C.Enqueues++
}

// Dequeue removes and returns the oldest value; ok is false when empty.
func (q *Queue) Dequeue(h *Handle) (v uint64, ok bool) {
	phase := q.maxPhase() + 1
	q.state[h.tid].d.Store(&opDesc{phase: phase, pending: true, enqueue: false})
	q.help(h, phase)
	q.helpFinishDeq(h)
	n := q.state[h.tid].d.Load().node
	h.C.Dequeues++
	if n == nil {
		h.C.Empty++
		return 0, false
	}
	return n.next.Load().value, true
}

// help performs every pending operation with phase ≤ phase.
func (q *Queue) help(h *Handle, phase int64) {
	for tid := range q.state {
		d := q.state[tid].d.Load()
		if d.pending && d.phase <= phase {
			if d.enqueue {
				q.helpEnq(h, int32(tid), phase)
			} else {
				q.helpDeq(h, int32(tid), phase)
			}
		}
	}
}

func (q *Queue) helpEnq(h *Handle, tid int32, phase int64) {
	for q.isStillPending(tid, phase) {
		last := q.tail.Load()
		next := last.next.Load()
		if last != q.tail.Load() {
			continue
		}
		if next == nil {
			if q.isStillPending(tid, phase) {
				h.C.CASAttempts++
				if last.next.CompareAndSwap(nil, q.state[tid].d.Load().node) {
					q.helpFinishEnq(h)
					return
				}
				h.C.CASFailures++
			}
		} else {
			q.helpFinishEnq(h)
		}
	}
}

func (q *Queue) helpFinishEnq(h *Handle) {
	last := q.tail.Load()
	next := last.next.Load()
	if next == nil {
		return
	}
	tid := next.enqTid
	if tid == -1 {
		// The sentinel can never reappear as a linked-but-unswung node.
		return
	}
	curDesc := q.state[tid].d.Load()
	if last == q.tail.Load() && q.state[tid].d.Load().node == next {
		newDesc := &opDesc{phase: curDesc.phase, pending: false, enqueue: true, node: next}
		h.C.CASAttempts++
		if !q.state[tid].d.CompareAndSwap(curDesc, newDesc) {
			h.C.CASFailures++
		}
		h.C.CASAttempts++
		if !q.tail.CompareAndSwap(last, next) {
			h.C.CASFailures++
		}
	}
}

func (q *Queue) helpDeq(h *Handle, tid int32, phase int64) {
	for q.isStillPending(tid, phase) {
		first := q.head.Load()
		last := q.tail.Load()
		next := first.next.Load()
		if first != q.head.Load() {
			continue
		}
		if first == last {
			if next == nil {
				// Queue empty: complete with node == nil.
				curDesc := q.state[tid].d.Load()
				if last == q.tail.Load() && q.isStillPending(tid, phase) {
					newDesc := &opDesc{phase: curDesc.phase, pending: false, enqueue: false}
					h.C.CASAttempts++
					if !q.state[tid].d.CompareAndSwap(curDesc, newDesc) {
						h.C.CASFailures++
					}
				}
			} else {
				// Lagging tail: finish the in-flight enqueue first.
				q.helpFinishEnq(h)
			}
			continue
		}
		curDesc := q.state[tid].d.Load()
		node := curDesc.node
		if !q.isStillPending(tid, phase) {
			break
		}
		if first == q.head.Load() && node != first {
			newDesc := &opDesc{phase: curDesc.phase, pending: true, enqueue: false, node: first}
			h.C.CASAttempts++
			if !q.state[tid].d.CompareAndSwap(curDesc, newDesc) {
				h.C.CASFailures++
				continue
			}
		}
		h.C.CASAttempts++
		if !first.deqTid.CompareAndSwap(-1, tid) {
			h.C.CASFailures++
		}
		q.helpFinishDeq(h)
	}
}

func (q *Queue) helpFinishDeq(h *Handle) {
	first := q.head.Load()
	next := first.next.Load()
	tid := first.deqTid.Load()
	if tid == -1 {
		return
	}
	curDesc := q.state[tid].d.Load()
	if first == q.head.Load() && next != nil {
		newDesc := &opDesc{phase: curDesc.phase, pending: false, enqueue: false, node: curDesc.node}
		h.C.CASAttempts++
		if !q.state[tid].d.CompareAndSwap(curDesc, newDesc) {
			h.C.CASFailures++
		}
		h.C.CASAttempts++
		if !q.head.CompareAndSwap(first, next) {
			h.C.CASFailures++
		}
	}
}
