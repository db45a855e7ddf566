package core

import (
	"sync/atomic"

	"lcrq/internal/chaos"
	"lcrq/internal/pad"
)

// top is the second reserved value of the infinite-array queue: the poison
// a dequeuer swaps into a cell to repel the matching enqueuer.
const top = ^uint64(0) - 1

// IAQ is the idealized "infinite array" queue of Figure 2, realized over a
// bounded backing array for demonstration and differential testing. It is
// linearizable but, unlike CRQ/LCRQ, (a) its capacity is the total number
// of enqueues it can ever accept — cells are never reused — and (b) it is
// susceptible to livelock under adversarial scheduling. It exists because
// LCRQ is best understood as the practical realization of this algorithm,
// and because agreement between the two on random histories is a cheap,
// powerful correctness check.
//
// Values Bottom and Bottom-1 are reserved.
//
//lcrq:padded
type IAQ struct {
	head atomic.Uint64
	_    pad.Pad
	tail atomic.Uint64
	_    pad.Pad
	// cells[i] holds ^v for enqueued value v; 0 is ⊥ and ^top is ⊤.
	cells []atomic.Uint64
}

// NewIAQ returns a queue that can accept capacity enqueues in total.
func NewIAQ(capacity int) *IAQ {
	if capacity <= 0 {
		panic("core: IAQ capacity must be positive")
	}
	return &IAQ{cells: make([]atomic.Uint64, capacity)}
}

// Capacity returns the total number of enqueues the queue can ever accept.
func (q *IAQ) Capacity() int { return len(q.cells) }

// Enqueue appends v. It returns false when the backing array is exhausted
// (the "infinite" part of the idealized algorithm runs out); this deviation
// from Figure 2 is what makes the demo realizable.
//
//lcrq:hotpath
func (q *IAQ) Enqueue(h *Handle, v uint64) bool {
	if v == Bottom || v == top {
		panic("core: enqueue of reserved value")
	}
	for {
		h.C.FetchAdds++
		t := q.tail.Add(1) - 1
		if t >= uint64(len(q.cells)) {
			return false
		}
		chaos.Delay(chaos.DelayEnq) // widen the F&A → SWAP window
		h.C.Swaps++
		if q.cells[t].Swap(^v) == 0 { // swapped into ⊥
			h.C.Enqueues++
			return true
		}
	}
}

// Dequeue removes and returns the oldest value; ok is false if the queue
// is empty. Dequeuing from an exhausted queue keeps returning ok=false.
//
//lcrq:hotpath
func (q *IAQ) Dequeue(h *Handle) (v uint64, ok bool) {
	for {
		h.C.FetchAdds++
		hd := q.head.Add(1) - 1
		if hd >= uint64(len(q.cells)) {
			h.C.Dequeues++
			h.C.Empty++
			return Bottom, false
		}
		chaos.Delay(chaos.DelayDeq) // widen the F&A → SWAP window
		h.C.Swaps++
		x := q.cells[hd].Swap(^top)
		if x != 0 && x != ^top { // found a value
			h.C.Dequeues++
			return ^x, true
		}
		if q.tail.Load() <= hd+1 {
			h.C.Dequeues++
			h.C.Empty++
			return Bottom, false
		}
	}
}
