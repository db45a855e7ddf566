package core

import (
	"sync/atomic"

	"lcrq/internal/atomic128"
	"lcrq/internal/chaos"
	"lcrq/internal/pad"
)

// Physical cell encoding (see package documentation):
//
//	lo word: bit 63 = unsafe flag (0 = safe), bits 0..62 = index
//	hi word: ^value; physical 0 encodes ⊥
const (
	unsafeFlag = uint64(1) << 63
	idxMask    = unsafeFlag - 1
	// closedBit is the most significant bit of the CRQ tail (Figure 3a).
	closedBit = uint64(1) << 63
)

// CRQ is the concurrent ring queue of Figure 3: a bounded, linearizable
// tantrum queue. Enqueue returns false once the ring has been closed; LCRQ
// builds an unbounded queue by chaining CRQs.
//
// A CRQ must be created with NewCRQ. The padcheck analyzer verifies the
// paper's layout: head, tail, next, and cluster each own a false-sharing
// range (§4: the F&A-over-CAS win evaporates if these words share lines).
//
//lcrq:padded
//lcrq:publish
type CRQ struct {
	head atomic.Uint64
	_    pad.Pad
	tail atomic.Uint64 // bit 63 = CLOSED
	_    pad.Pad
	next atomic.Pointer[CRQ]
	_    pad.Pad
	// cluster is the LCRQ+H batching hint: the cluster whose operations
	// currently "own" the ring.
	cluster atomic.Int64
	_       pad.Pad

	// The ring. Cell i lives at slab[(i&mask)<<strideShift]; strideShift is
	// 3 for padded cells (8 × 16 B = one false-sharing range) and 0 for
	// packed cells.
	slab        []atomic128.Uint128
	mask        uint64
	size        uint64
	strideShift uint

	// stamps is the parallel item-trace array (nil unless tracing is
	// configured): slot t&mask carries the trace stamp of the enqueuer that
	// claimed index t, matched by tag. Read-only after init, like slab.
	stamps []traceStamp

	// scq is the portable single-word ring engine (nil for the CAS2
	// layout): when set, head/tail above serve as the SCQ's allocated-index
	// queue and slab is not allocated. Selected by Config.Ring; see scq.go.
	scq *scqRing

	cfg Config
}

// NewCRQ returns an empty ring configured by cfg.
func NewCRQ(cfg Config) *CRQ {
	cfg = cfg.normalized()
	q := &CRQ{cfg: cfg}
	q.size = uint64(1) << cfg.RingOrder
	q.mask = q.size - 1
	if cfg.NoPadding {
		q.strideShift = 0
	} else {
		q.strideShift = 3
	}
	if cfg.Ring == RingSCQ {
		// Portable engine: 2×2n single-word entries + n value slots stand
		// in for the CAS2 slab (see scq.go); cache_remap replaces stride
		// padding, so NoPadding is meaningless here.
		q.scq = newSCQRing(cfg.RingOrder)
	} else {
		// The all-zero cell is the initial state (safe, index 0, ⊥), so the
		// freshly zeroed slab needs no initialization loop.
		q.slab = atomic128.AlignedUint128s(int(q.size) << q.strideShift)
	}
	if cfg.TraceSampleN != 0 {
		// Zero tags mean "no stamp", so the fresh array needs no init.
		q.stamps = make([]traceStamp, q.size)
	}
	return q
}

//lcrq:hotpath
func (q *CRQ) cell(i uint64) *atomic128.Uint128 {
	return &q.slab[(i&q.mask)<<q.strideShift]
}

// reset returns a drained ring to its initial empty state so it can be
// reused. It must only be called when no other thread can access the ring
// (i.e. after hazard-pointer reclamation).
func (q *CRQ) reset() {
	clear(q.slab)
	if q.scq != nil {
		q.scq.initState()
	}
	// Clearing only the tags suffices to invalidate every stamp: a recycled
	// ring restarts at index 0, and stale tags from the previous life would
	// otherwise alias indices of the new one exactly (tag == idx+1 repeats
	// every lap).
	for i := range q.stamps {
		q.stamps[i].tag.Store(0)
	}
	q.head.Store(0)
	q.tail.Store(0)
	q.next.Store(nil)
	q.cluster.Store(0)
}

// seed installs v as the ring's only element. Like reset it requires
// exclusive access; LCRQ uses it to build "a new CRQ initialized to contain
// x" (Figure 5c, line 162).
func (q *CRQ) seed(v uint64) {
	if q.scq != nil {
		q.scq.seedValue(v)
		q.tail.Store(1)
		return
	}
	// Full-cell store: one stripe-locked critical section on emulated
	// builds, two plain atomic halves on native (exclusive access either way).
	q.cell(0).Store(0, ^v) // safe, index 0, value v
	q.tail.Store(1)
}

// Size returns the ring capacity R.
func (q *CRQ) Size() int { return int(q.size) }

// Closed reports whether the ring has been closed to further enqueues.
func (q *CRQ) Closed() bool { return q.tail.Load()&closedBit != 0 }

// close sets the CLOSED bit with a test-and-set (the paper uses LOCK BTS;
// an atomic OR of a single bit is the identical x86 idiom). ev attributes
// the close in the lifecycle trace (full/helping close vs. tantrum); the
// event fires only when this call performed the transition, so concurrent
// closers do not flood the trace.
//
//lcrq:hotpath
func (q *CRQ) closeRing(h *Handle, ev RingEvent) {
	h.C.TestAndSets++
	h.C.RingCloses++
	was := q.tail.Or(closedBit)
	if was&closedBit == 0 && q.cfg.Tap != nil {
		q.cfg.Tap.RingEvent(ev)
	}
}

// cas2 performs a cell CAS2 on behalf of h, counting the attempt and any
// failure, unless the chaos layer forces the attempt to fail at injection
// point p (in which case no hardware CAS is issued — indistinguishable, to
// the caller, from losing the cell race to another thread).
//
//lcrq:hotpath
func cas2(h *Handle, cell *atomic128.Uint128, p chaos.Point, oldLo, oldHi, newLo, newHi uint64) bool {
	if chaos.Fire(p) {
		h.C.CAS2Failures++
		return false
	}
	h.C.CAS2Attempts++
	if cell.CompareAndSwap(oldLo, oldHi, newLo, newHi) {
		return true
	}
	h.C.CAS2Failures++
	return false
}

// faaHead performs F&A(&head, 1), or its CAS-loop emulation in the
// LCRQ-CAS variant.
//
//lcrq:hotpath
func (q *CRQ) faaHead(h *Handle) uint64 {
	if q.cfg.CASLoopFAA {
		for {
			old := q.head.Load()
			h.C.CASAttempts++
			if q.head.CompareAndSwap(old, old+1) {
				return old
			}
			h.C.CASFailures++
		}
	}
	h.C.FetchAdds++
	return q.head.Add(1) - 1
}

// faaTail performs F&A(&tail, 1) on all 64 bits (the closed bit rides
// along, exactly as in Figure 3d line 84).
//
//lcrq:hotpath
func (q *CRQ) faaTail(h *Handle) uint64 {
	if q.cfg.CASLoopFAA {
		for {
			old := q.tail.Load()
			h.C.CASAttempts++
			if q.tail.CompareAndSwap(old, old+1) {
				return old
			}
			h.C.CASFailures++
		}
	}
	h.C.FetchAdds++
	return q.tail.Add(1) - 1
}

// faaHeadN reserves k consecutive dequeue indices with one F&A(&head, k)
// (or its CAS-loop emulation), returning the first. This is the batching
// analogue of faaHead: the hot-line RMW is paid once per batch.
//
//lcrq:hotpath
func (q *CRQ) faaHeadN(h *Handle, k uint64) uint64 {
	if q.cfg.CASLoopFAA {
		for {
			old := q.head.Load()
			h.C.CASAttempts++
			if q.head.CompareAndSwap(old, old+k) {
				return old
			}
			h.C.CASFailures++
		}
	}
	h.C.FetchAdds++
	return q.head.Add(k) - k
}

// faaTailN reserves k consecutive enqueue indices with one F&A(&tail, k),
// returning the first. As with faaTail the closed bit rides along: a
// reservation on a closed ring returns it set and deposits nothing.
//
//lcrq:hotpath
func (q *CRQ) faaTailN(h *Handle, k uint64) uint64 {
	if q.cfg.CASLoopFAA {
		for {
			old := q.tail.Load()
			h.C.CASAttempts++
			if q.tail.CompareAndSwap(old, old+k) {
				return old
			}
			h.C.CASFailures++
		}
	}
	h.C.FetchAdds++
	return q.tail.Add(k) - k
}

// Enqueue attempts to append v to the ring. It returns false if the ring is
// (or becomes) CLOSED, in which case v was not enqueued. v must not be
// Bottom.
//
// This is Figure 3d. The enqueue transition (s,k,⊥) → (1,t,v) is attempted
// when the cell is empty, its index does not exceed ours, and either the
// cell is safe or the matching dequeuer provably has not started
// (head ≤ t). On failure the ring is closed if it appears full
// (t − head ≥ R) or the thread is starving.
//
//lcrq:hotpath
func (q *CRQ) Enqueue(h *Handle, v uint64) bool {
	if v == Bottom {
		panic("core: enqueue of reserved value Bottom")
	}
	if q.scq != nil {
		return q.scqEnqueue(h, v)
	}
	tries := 0
	for {
		// Forced close: behave as if this attempt had observed a full ring.
		if chaos.Fire(chaos.RingClose) {
			q.closeRing(h, EvRingClose)
			return false
		}
		tc := q.faaTail(h)
		if tc&closedBit != 0 {
			return false
		}
		t := tc
		cell := q.cell(t)

		hi := cell.LoadHi()
		lo := cell.LoadLo()
		idx := lo & idxMask
		safe := lo&unsafeFlag == 0

		if hi == 0 { // value is ⊥
			if idx <= t && (safe || q.head.Load() <= t) {
				chaos.Delay(chaos.DelayEnq)
				// Publish the armed trace stamp before the deposit CAS: a
				// dequeuer only reads the stamp after claiming the value, so
				// the CAS success orders the stamp ahead of every reader.
				if h.traceArmed && q.stamps != nil {
					q.stampTrace(h, t)
				}
				// (s, idx, ⊥) → (1, t, v): new lo = t with unsafe flag
				// cleared, new hi = ^v.
				if cas2(h, cell, chaos.EnqCAS2Fail, lo, 0, t, ^v) {
					if h.traceArmed {
						h.completeEnqTrace()
					}
					return true
				}
			}
		}

		hd := q.head.Load()
		tries++
		if chaos.Fire(chaos.Tantrum) {
			tries = q.cfg.StarvationLimit // forced starvation: throw the tantrum now
		}
		if full := int64(t-hd) >= int64(q.size); full || tries >= q.cfg.StarvationLimit {
			ev := EvRingTantrum
			if full {
				ev = EvRingClose
			}
			q.closeRing(h, ev)
			return false
		}
		h.C.CellRetries++
	}
}

// Dequeue removes and returns the oldest value in the ring. ok is false if
// the ring is empty (head has caught up with tail).
//
// This is Figure 3b plus the bounded-wait optimization of §4.1.1: before
// poisoning a cell with an empty transition, the dequeuer gives an active
// matching enqueuer (evidenced by tail > h) a bounded spin to deposit its
// value, avoiding a pointless retry by both parties.
func (q *CRQ) Dequeue(h *Handle) (v uint64, ok bool) {
	if q.scq != nil {
		return q.scqDequeue(h)
	}
	for {
		hIdx := q.faaHead(h)
		chaos.Delay(chaos.DelayDeq)
		cell := q.cell(hIdx)
		spins := q.cfg.SpinWait

	cellLoop:
		for {
			hi := cell.LoadHi()
			lo := cell.LoadLo()
			idx := lo & idxMask
			unsafeBit := lo & unsafeFlag

			if idx > hIdx {
				break cellLoop // overtaken: someone moved the cell past us
			}
			if hi != 0 { // cell holds a value
				if idx == hIdx {
					// Dequeue transition (s, h, v) → (s, h+R, ⊥).
					if cas2(h, cell, chaos.DeqCAS2Fail, lo, hi, unsafeBit|(hIdx+q.size), 0) {
						if q.stamps != nil {
							q.checkStamp(h, hIdx, 0)
						}
						return ^hi, true
					}
				} else {
					// We arrived a lap early: unsafe transition
					// (s, k, v) → (0, k, v).
					if cas2(h, cell, chaos.DeqCAS2Fail, lo, hi, unsafeFlag|idx, hi) {
						h.C.UnsafeTransitions++
						break cellLoop
					}
				}
			} else {
				// Empty cell. If the matching enqueuer is active (its F&A
				// has been handed out: tail > h), give it a bounded chance.
				if spins > 0 && q.tail.Load()&^closedBit > hIdx {
					spins--
					h.C.SpinWaits++
					continue cellLoop
				}
				// Empty transition (s, k, ⊥) → (s, h+R, ⊥).
				if cas2(h, cell, chaos.DeqCAS2Fail, lo, 0, unsafeBit|(hIdx+q.size), 0) {
					h.C.EmptyTransitions++
					break cellLoop
				}
			}
		}

		// Failed to dequeue at hIdx: return EMPTY if the ring has no more
		// items, otherwise take a fresh index.
		t := q.tail.Load() &^ closedBit
		if t <= hIdx+1 {
			q.fixState(h)
			return Bottom, false
		}
		h.C.CellRetries++
	}
}

// EnqueueBatch appends the values of vs, in order, reserving consecutive
// ring indices in blocks with a single tail F&A per block instead of one per
// value. Each reserved index then runs the ordinary per-cell enqueue
// transition of Figure 3d independently, so the batch changes only how
// indices are claimed, not how cells synchronize: an index whose cell
// attempt fails is simply abandoned — exactly the state a failed single
// enqueue attempt leaves behind, which dequeuers already poison past — and
// its value moves on to the next reserved index.
//
// It returns how many values were accepted (always a prefix of vs) and
// whether the ring is closed. On return either every value landed or the
// ring is closed, so the LCRQ layer spills the remainder into a fresh ring;
// progress is guaranteed because every reserved index that fails its cell
// either advances the value cursor, closes the ring, or raises the shared
// starvation count toward the tantrum.
//
//lcrq:hotpath
func (q *CRQ) EnqueueBatch(h *Handle, vs []uint64) (n int, closed bool) {
	for _, v := range vs {
		if v == Bottom {
			panic("core: enqueue of reserved value Bottom")
		}
	}
	k := uint64(len(vs))
	if k == 0 {
		return 0, q.Closed()
	}
	if q.scq != nil {
		return q.scqEnqueueBatch(h, vs)
	}
	if k > q.size {
		// A longer reservation would lap the ring onto itself (index t and
		// t+R share a cell); the caller re-invokes for the remainder.
		k = q.size
	}
	tries := 0
	for uint64(n) < k {
		// Forced close: behave as if the reservation had observed a full ring.
		if chaos.Fire(chaos.RingClose) {
			q.closeRing(h, EvRingClose)
			return n, true
		}
		rem := k - uint64(n)
		base := q.faaTailN(h, rem)
		if base&closedBit != 0 {
			return n, true
		}
		chaos.Delay(chaos.BatchEnqReserve)
		for i := uint64(0); i < rem; i++ {
			t := base + i
			cell := q.cell(t)
			hi := cell.LoadHi()
			lo := cell.LoadLo()
			idx := lo & idxMask
			safe := lo&unsafeFlag == 0
			if hi == 0 && idx <= t && (safe || q.head.Load() <= t) {
				chaos.Delay(chaos.DelayEnq)
				// One armed trace per operation: the first value deposited
				// after arming carries the stamp (see Enqueue for ordering).
				if h.traceArmed && q.stamps != nil {
					q.stampTrace(h, t)
				}
				if cas2(h, cell, chaos.EnqCAS2Fail, lo, 0, t, ^vs[n]) {
					if h.traceArmed {
						h.completeEnqTrace()
					}
					n++
					continue
				}
			}
			// Lost the cell: abandon index t (a dequeuer empty-transitions
			// past it, as after any failed single attempt) and fall into the
			// same full/starvation policy as the single-op path.
			hd := q.head.Load()
			tries++
			if chaos.Fire(chaos.Tantrum) {
				tries = q.cfg.StarvationLimit
			}
			if full := int64(t-hd) >= int64(q.size); full || tries >= q.cfg.StarvationLimit {
				ev := EvRingTantrum
				if full {
					ev = EvRingClose
				}
				q.closeRing(h, ev)
				return n, true
			}
			h.C.CellRetries++
		}
	}
	return n, false
}

// DequeueBatch removes up to len(out) of the oldest values into out,
// reserving consecutive head indices with a single F&A sized to the
// population observed at entry (so an empty ring costs no F&A at all, and
// overshoot beyond a racing tail is bounded by the staleness of one load).
// Each reserved index runs the ordinary per-cell dequeue protocol of Figure
// 3b, bounded spin-wait included; indices that yield no value are repaired
// by the same fixState call the single-op path relies on.
//
// It returns how many values were written to out[0:]. 0 means the ring was
// observed empty: the only return of 0 is from the tail ≤ head proof below,
// never from a reservation whose cells all came up empty — that situation
// (abandoned indices left by racing or faulted enqueuers) retries exactly
// as the single-op Dequeue's internal loop does, so a 0 answer is always a
// linearizable emptiness witness.
//
//lcrq:hotpath
func (q *CRQ) DequeueBatch(h *Handle, out []uint64) int {
	kMax := uint64(len(out))
	if kMax == 0 {
		return 0
	}
	if q.scq != nil {
		return q.scqDequeueBatch(h, out)
	}
	if kMax > q.size {
		kMax = q.size
	}
retry:
	k := kMax
	// Clamp the reservation to the observed population. Reading head before
	// tail makes the empty answer linearizable: head is monotone, so at the
	// instant tail was loaded head ≥ hd held, and tail ≤ head means the ring
	// was empty at that instant.
	hd := q.head.Load()
	t := q.tail.Load() &^ closedBit
	if t <= hd {
		return 0
	}
	if avail := t - hd; k > avail {
		k = avail
	}
	base := q.faaHeadN(h, k)
	chaos.Delay(chaos.BatchDeqReserve)
	n := 0
	misses := false
	for i := uint64(0); i < k; i++ {
		hIdx := base + i
		chaos.Delay(chaos.DelayDeq)
		cell := q.cell(hIdx)
		spins := q.cfg.SpinWait
		before := n

	cellLoop:
		for {
			hi := cell.LoadHi()
			lo := cell.LoadLo()
			idx := lo & idxMask
			unsafeBit := lo & unsafeFlag

			if idx > hIdx {
				break cellLoop // overtaken: someone moved the cell past us
			}
			if hi != 0 {
				if idx == hIdx {
					if cas2(h, cell, chaos.DeqCAS2Fail, lo, hi, unsafeBit|(hIdx+q.size), 0) {
						out[n] = ^hi
						if q.stamps != nil {
							q.checkStamp(h, hIdx, n)
						}
						n++
						break cellLoop
					}
				} else {
					if cas2(h, cell, chaos.DeqCAS2Fail, lo, hi, unsafeFlag|idx, hi) {
						h.C.UnsafeTransitions++
						break cellLoop
					}
				}
			} else {
				if spins > 0 && q.tail.Load()&^closedBit > hIdx {
					spins--
					h.C.SpinWaits++
					continue cellLoop
				}
				if cas2(h, cell, chaos.DeqCAS2Fail, lo, 0, unsafeBit|(hIdx+q.size), 0) {
					h.C.EmptyTransitions++
					break cellLoop
				}
			}
		}
		if n == before {
			misses = true
		}
	}
	if misses {
		// Some reserved index yielded nothing, so head may now exceed tail;
		// repair exactly as the single-op path does after an empty verdict.
		q.fixState(h)
	}
	if n == 0 {
		// The whole reservation missed (every cell was abandoned or moved
		// on). That proves nothing about emptiness — values deposited before
		// this call can still sit at higher indices — so go back to the
		// availability check; head has advanced, so this terminates once
		// tail ≤ head genuinely holds.
		h.C.CellRetries++
		goto retry
	}
	return n
}

// fixState repairs the transient head > tail state a dequeuer's F&A can
// create (Figure 3c), so that a subsequent enqueuer does not spuriously
// observe a full ring. The comparison uses the full 64-bit tail: once the
// ring is closed the state no longer needs fixing, and head (< 2^63) can
// never exceed a closed tail.
//
//lcrq:hotpath
func (q *CRQ) fixState(h *Handle) {
	for {
		t := q.tail.Load()
		hd := q.head.Load()
		if q.tail.Load() != t {
			continue // tail moved between the two loads; retry
		}
		if hd <= t {
			return // nothing to fix
		}
		h.C.CASAttempts++
		if q.tail.CompareAndSwap(t, hd) {
			return
		}
		h.C.CASFailures++
	}
}
