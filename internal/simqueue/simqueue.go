// Package simqueue implements SimQueue, Fatourou and Kallimanis' queue
// built on the P-Sim wait-free combining construction (SPAA 2011), which
// the LCRQ paper discusses alongside CC-Queue ("Fatourou and Kallimanis
// present SimQueue, a queue based on a wait-free combining construction").
//
// The construction: each thread announces a request and flips its bit in a
// shared Toggles word (only thread i ever touches bit i, so the flip is a
// plain fetch-and-add of ±2^i — it always succeeds). Any thread can then
// combine: copy the current state record, apply every request whose toggle
// bit differs from the state's applied mask, and install the copy with one
// pointer CAS. Whoever wins, every announced request in the window gets
// applied exactly once; a thread whose bit is applied reads its response
// from the installed record. Go's garbage collector removes the need for
// P-Sim's recycled-record pools and version tags (a fresh record per
// attempt cannot be ABA'd).
//
// Like the original, the queue splits into two Sim instances so enqueues
// and dequeues combine in parallel:
//
//   - the enqueue side's state is {applied, tail, and a pending link}: the
//     combiner chains the announced values privately and publishes
//     (oldTail → chainHead) as data; the actual oldTail.next store is an
//     idempotent CAS(nil, chainHead) that every reader re-executes
//     (fixLink), so it cannot be lost to a preempted winner;
//   - the dequeue side's state is {applied, head, per-thread responses};
//     its combiner fixes the enqueue side's pending link before walking.
//
// The bitmask limits one queue to 64 handles per side. The combining loop
// retries until the caller's bit is applied; P-Sim proves two rounds
// suffice, and the loop structure preserves that bound in practice while
// staying obviously correct.
package simqueue

import (
	"sync"
	"sync/atomic"

	"lcrq/internal/instrument"
	"lcrq/internal/pad"
)

// MaxHandles is the per-queue handle limit imposed by the toggle bitmask.
const MaxHandles = 64

type node struct {
	value uint64
	next  atomic.Pointer[node]
}

// announce is one thread's published request slot. The value is atomic
// because a combiner working on a stale window may read it concurrently
// with the owner announcing its next request; the stale combiner's CAS is
// doomed (the state pointer has moved), so the value it read is never
// used, but the access itself must still be race-free.
//
//lcrq:padded
type announce struct {
	val atomic.Uint64 // enqueue value (enqueue side)
	_   pad.Line
}

// ---- enqueue side ----

type enqState struct {
	applied   uint64
	tail      *node
	oldTail   *node // fixLink target: oldTail.next ← chainHead
	chainHead *node
}

// ---- dequeue side ----

type deqState struct {
	applied uint64
	head    *node // dummy node; head.next is the queue front
	ret     [MaxHandles]uint64
	retOK   [MaxHandles]bool
}

// Queue is a SimQueue. Create with New; obtain at most MaxHandles handles.
//
//lcrq:padded
type Queue struct {
	enqToggles atomic.Uint64
	_          pad.Line
	deqToggles atomic.Uint64
	_          pad.Line
	enqS       atomic.Pointer[enqState]
	_          pad.Line
	deqS       atomic.Pointer[deqState]
	_          pad.Line
	announces  [MaxHandles]announce

	mu     sync.Mutex
	nextID int
}

// New returns an empty SimQueue.
func New() *Queue {
	q := &Queue{}
	dummy := &node{}
	q.enqS.Store(&enqState{tail: dummy})
	q.deqS.Store(&deqState{head: dummy})
	return q
}

// Handle is one thread's identity (a toggle bit) on both sides.
type Handle struct {
	C instrument.Counters
	q *Queue
	// toggle bookkeeping: the value of the thread's bit after its next
	// announce on each side.
	enqToggle uint64
	deqToggle uint64
	bit       uint64
	id        int
}

// NewHandle allocates a handle; it panics beyond MaxHandles.
func (q *Queue) NewHandle() *Handle {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.nextID >= MaxHandles {
		panic("simqueue: more than MaxHandles handles")
	}
	h := &Handle{q: q, id: q.nextID, bit: 1 << uint(q.nextID)}
	q.nextID++
	return h
}

// flip toggles the handle's bit in the given word using fetch-and-add:
// only this thread touches the bit, so adding +bit when the bit is 0 and
// −bit when it is 1 flips it exactly, with no carry into neighbours (this
// is how P-Sim announces with an always-succeeding instruction). It
// returns the bit's new value.
func (h *Handle) flip(w *atomic.Uint64, cur *uint64) uint64 {
	h.C.FetchAdds++
	if *cur == 0 {
		w.Add(h.bit)
		*cur = h.bit
	} else {
		w.Add(-h.bit) // two's complement: subtracts the bit
		*cur = 0
	}
	return *cur
}

// fixLink performs the enqueue side's pending list splice. It is
// idempotent: every reader CASes the same (nil → chainHead) transition.
func fixLink(st *enqState) {
	if st.oldTail != nil && st.chainHead != nil {
		st.oldTail.next.CompareAndSwap(nil, st.chainHead)
	}
}

// Enqueue appends v.
func (q *Queue) Enqueue(h *Handle, v uint64) {
	q.announces[h.id].val.Store(v)
	// Announce: flip our enqueue toggle. We are applied once the installed
	// state's applied mask has our bit equal to the flipped value.
	myBit := h.flip(&q.enqToggles, &h.enqToggle)
	for {
		ls := q.enqS.Load()
		fixLink(ls)
		if ls.applied&h.bit == myBit {
			h.C.Enqueues++
			return // someone applied us
		}
		toggles := q.enqToggles.Load()
		diffs := toggles ^ ls.applied
		if diffs == 0 {
			continue // stale read; retry
		}
		// Build the chain of announced values, in ascending handle order.
		var chainHead, chainTail *node
		for id := 0; id < MaxHandles; id++ {
			if diffs&(1<<uint(id)) == 0 {
				continue
			}
			n := &node{value: q.announces[id].val.Load()}
			if chainHead == nil {
				chainHead = n
			} else {
				chainTail.next.Store(n)
			}
			chainTail = n
		}
		ns := &enqState{
			applied:   toggles,
			tail:      chainTail,
			oldTail:   ls.tail,
			chainHead: chainHead,
		}
		h.C.CASAttempts++
		if q.enqS.CompareAndSwap(ls, ns) {
			fixLink(ns)
			h.C.CombinerRuns++
			h.C.Combined += popcount(diffs)
		} else {
			h.C.CASFailures++
		}
	}
}

// Dequeue removes and returns the oldest value; ok is false when the queue
// was empty at the operation's linearization point.
func (q *Queue) Dequeue(h *Handle) (v uint64, ok bool) {
	myBit := h.flip(&q.deqToggles, &h.deqToggle)
	for {
		ls := q.deqS.Load()
		if ls.applied&h.bit == myBit {
			h.C.Dequeues++
			if !ls.retOK[h.id] {
				h.C.Empty++
				return 0, false
			}
			return ls.ret[h.id], true
		}
		toggles := q.deqToggles.Load()
		diffs := toggles ^ ls.applied
		if diffs == 0 {
			continue
		}
		// Make sure the enqueue side's most recent splice is visible
		// before walking, so linked items are reachable.
		fixLink(q.enqS.Load())
		ns := &deqState{applied: toggles, head: ls.head, ret: ls.ret, retOK: ls.retOK}
		for id := 0; id < MaxHandles; id++ {
			if diffs&(1<<uint(id)) == 0 {
				continue
			}
			next := ns.head.next.Load()
			if next == nil {
				ns.retOK[id] = false
				ns.ret[id] = 0
				continue
			}
			ns.ret[id] = next.value
			ns.retOK[id] = true
			ns.head = next
		}
		h.C.CASAttempts++
		if q.deqS.CompareAndSwap(ls, ns) {
			h.C.CombinerRuns++
			h.C.Combined += popcount(diffs)
		} else {
			h.C.CASFailures++
		}
	}
}

func popcount(x uint64) uint64 {
	var n uint64
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}
