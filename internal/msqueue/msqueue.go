// Package msqueue implements Michael and Scott's classic concurrent queues
// (PODC 1996): the nonblocking CAS-based linked-list queue ("MS queue") and
// the two-lock blocking queue. The MS queue is the paper's representative of
// CAS-hot-spot algorithms (it stops scaling once head/tail CASes start
// failing); the two-lock queue is the substrate the CC-Queue and H-Queue
// are built from by replacing each lock with a combining instance.
package msqueue

import (
	"sync"
	"sync/atomic"

	"lcrq/internal/instrument"
	"lcrq/internal/pad"
)

type node struct {
	v    uint64
	next atomic.Pointer[node]
}

// Handle carries a thread's instrumentation counters. MS queues need no
// other per-thread state, but the uniform handle shape keeps the harness
// simple.
type Handle struct {
	C instrument.Counters
}

// Queue is the nonblocking MS queue. Safe for concurrent use; create with
// New.
//
//lcrq:padded
type Queue struct {
	head atomic.Pointer[node]
	_    pad.Line
	tail atomic.Pointer[node]
	_    pad.Line
}

// New returns an empty nonblocking MS queue.
func New() *Queue {
	q := &Queue{}
	d := &node{}
	q.head.Store(d)
	q.tail.Store(d)
	return q
}

// Enqueue appends v.
func (q *Queue) Enqueue(h *Handle, v uint64) {
	n := &node{v: v}
	for {
		t := q.tail.Load()
		next := t.next.Load()
		if t != q.tail.Load() {
			continue
		}
		if next != nil {
			// Help a stalled enqueuer finish its tail swing.
			h.C.CASAttempts++
			if !q.tail.CompareAndSwap(t, next) {
				h.C.CASFailures++
			}
			continue
		}
		h.C.CASAttempts++
		if t.next.CompareAndSwap(nil, n) {
			h.C.CASAttempts++
			if !q.tail.CompareAndSwap(t, n) {
				h.C.CASFailures++
			}
			h.C.Enqueues++
			return
		}
		h.C.CASFailures++
	}
}

// Dequeue removes and returns the oldest value; ok is false when empty.
func (q *Queue) Dequeue(h *Handle) (v uint64, ok bool) {
	for {
		hd := q.head.Load()
		t := q.tail.Load()
		next := hd.next.Load()
		if hd != q.head.Load() {
			continue
		}
		if hd == t {
			if next == nil {
				h.C.Dequeues++
				h.C.Empty++
				return 0, false
			}
			h.C.CASAttempts++
			if !q.tail.CompareAndSwap(t, next) {
				h.C.CASFailures++
			}
			continue
		}
		v = next.v
		h.C.CASAttempts++
		if q.head.CompareAndSwap(hd, next) {
			h.C.Dequeues++
			return v, true
		}
		h.C.CASFailures++
	}
}

// TwoLock is Michael and Scott's two-lock queue: one mutex serializes
// enqueuers at the tail, another serializes dequeuers at the head; the
// dummy node keeps the two sides from interfering. The next pointers are
// atomic because an enqueuer's link store can race with the empty check of
// a dequeuer holding only the head lock.
type TwoLock struct {
	hmu  sync.Mutex
	head *node
	_    pad.Line
	tmu  sync.Mutex
	tail *node
	_    pad.Line
}

// NewTwoLock returns an empty two-lock queue.
func NewTwoLock() *TwoLock {
	d := &node{}
	return &TwoLock{head: d, tail: d}
}

// Enqueue appends v.
func (q *TwoLock) Enqueue(h *Handle, v uint64) {
	n := &node{v: v}
	q.tmu.Lock()
	h.C.LockAcquisitions++
	q.tail.next.Store(n)
	q.tail = n
	q.tmu.Unlock()
	h.C.Enqueues++
}

// Dequeue removes and returns the oldest value; ok is false when empty.
func (q *TwoLock) Dequeue(h *Handle) (v uint64, ok bool) {
	q.hmu.Lock()
	h.C.LockAcquisitions++
	next := q.head.next.Load()
	if next == nil {
		q.hmu.Unlock()
		h.C.Dequeues++
		h.C.Empty++
		return 0, false
	}
	v = next.v
	q.head = next
	q.hmu.Unlock()
	h.C.Dequeues++
	return v, true
}
