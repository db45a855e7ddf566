// Package fc implements the flat-combining FIFO queue of Hendler, Incze,
// Shavit and Tzafrir (SPAA 2010), the "FC queue" baseline of the LCRQ
// paper's evaluation.
//
// Threads publish requests on a shared publication list; whoever acquires
// the single global try-lock becomes the combiner and applies every pending
// request, making multiple scan passes so requests published mid-pass are
// picked up. The queue body, touched only by the combiner, is the structure
// the paper describes: "a linked list of cyclic arrays, with a new tail
// array allocated when the old tail fills".
package fc

import (
	"runtime"
	"sync/atomic"

	"lcrq/internal/instrument"
	"lcrq/internal/pad"
)

// Publication-record opcodes.
const (
	opNone uint32 = iota
	opEnq
	opDeq
)

// scanPasses is how many times a combiner rescans the publication list per
// combining session; Hendler et al. recommend a small constant > 1 so that
// requests arriving during a pass complete without another lock handoff.
const scanPasses = 3

type record struct {
	op    atomic.Uint32 // opNone when idle; set by owner, cleared by combiner
	arg   uint64
	ret   uint64
	retOK bool
	alive atomic.Bool // false after the owning handle is released
	next  atomic.Pointer[record]
	_     pad.Line
}

// segSize is the cyclic-array capacity of one queue body segment.
const segSize = 512

type seg struct {
	vals [segSize]uint64
	next *seg
}

// body is the sequential queue: only the lock-holding combiner touches it.
type body struct {
	head, tail *seg
	hidx, tidx int // positions within head and tail segments
}

func newBody() *body {
	s := &seg{}
	return &body{head: s, tail: s}
}

func (b *body) enq(v uint64) {
	if b.tidx == segSize {
		b.tail.next = &seg{}
		b.tail = b.tail.next
		b.tidx = 0
	}
	b.tail.vals[b.tidx] = v
	b.tidx++
}

func (b *body) deq() (uint64, bool) {
	// Empty check first: with head == tail and hidx == tidx == segSize (one
	// segment filled and fully drained, no successor allocated yet),
	// advancing first would walk off a nil head.next.
	if b.head == b.tail && b.hidx == b.tidx {
		return 0, false
	}
	if b.hidx == segSize {
		b.head = b.head.next
		b.hidx = 0
	}
	v := b.head.vals[b.hidx]
	b.hidx++
	return v, true
}

// Queue is the flat-combining queue.
//
//lcrq:padded
type Queue struct {
	lock atomic.Uint32 // global combiner try-lock (test-and-test-and-set)
	_    pad.Line
	pub  atomic.Pointer[record] // publication list head
	_    pad.Line
	body *body
}

// New returns an empty FC queue.
func New() *Queue {
	return &Queue{body: newBody()}
}

// Handle owns one publication record. Handles must not be shared between
// threads; Release retires the record.
type Handle struct {
	C   instrument.Counters
	q   *Queue
	rec *record
}

// NewHandle registers a publication record for the calling thread.
func (q *Queue) NewHandle() *Handle {
	r := &record{}
	r.alive.Store(true)
	for {
		head := q.pub.Load()
		r.next.Store(head)
		if q.pub.CompareAndSwap(head, r) {
			break
		}
	}
	return &Handle{q: q, rec: r}
}

// Release retires the handle's publication record; combiners skip it from
// then on. (Records stay linked — the original algorithm periodically
// unlinks stale records; retirement is enough for correctness and keeps
// the list manipulation simple.)
func (h *Handle) Release() { h.rec.alive.Store(false) }

// Enqueue appends v.
func (h *Handle) Enqueue(v uint64) {
	h.rec.arg = v
	h.publish(opEnq)
	h.C.Enqueues++
}

// Dequeue removes and returns the oldest value; ok is false when empty.
func (h *Handle) Dequeue() (v uint64, ok bool) {
	h.publish(opDeq)
	h.C.Dequeues++
	if !h.rec.retOK {
		h.C.Empty++
	}
	return h.rec.ret, h.rec.retOK
}

// publish announces the operation and waits for a combiner (possibly this
// thread) to execute it.
func (h *Handle) publish(op uint32) {
	r := h.rec
	r.op.Store(op)
	for spins := 0; ; spins++ {
		if r.op.Load() == opNone {
			return // a combiner served us
		}
		if h.q.lock.Load() == 0 {
			h.C.TestAndSets++
			if h.q.lock.CompareAndSwap(0, 1) {
				h.q.combine(h)
				h.q.lock.Store(0)
				if r.op.Load() == opNone {
					return
				}
				continue
			}
		}
		if spins%64 == 63 {
			runtime.Gosched()
		}
	}
}

// combine runs under the global lock: scan the publication list several
// times and apply every pending request.
func (q *Queue) combine(h *Handle) {
	h.C.CombinerRuns++
	for pass := 0; pass < scanPasses; pass++ {
		for r := q.pub.Load(); r != nil; r = r.next.Load() {
			if !r.alive.Load() {
				continue
			}
			switch r.op.Load() {
			case opEnq:
				q.body.enq(r.arg)
				r.retOK = true
				r.op.Store(opNone)
				h.C.Combined++
			case opDeq:
				r.ret, r.retOK = q.body.deq()
				r.op.Store(opNone)
				h.C.Combined++
			}
		}
	}
}
