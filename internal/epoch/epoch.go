// Package epoch implements epoch-based memory reclamation (EBR, Fraser
// 2004), the classic alternative to the hazard pointers the LCRQ paper
// uses for safe CRQ recycling.
//
// The trade-off against hazard pointers is canonical: EBR makes the read
// path cheaper — pinning is one store and one load per operation, with no
// per-pointer publication or revalidation — but reclamation can be delayed
// arbitrarily by a single stalled pinned thread, whereas hazard pointers
// bound unreclaimed memory by the number of protected pointers. The LCRQ
// core exposes both (plus GC-only) so the difference is measurable on the
// same workload (BenchmarkAblationReclamation).
//
// This is the standard three-epoch scheme: the global epoch advances only
// when every pinned participant has observed the current value, so nodes
// retired in epoch e cannot be reachable once the global epoch reaches e+2,
// making the e-2 retirement generation safe to reclaim.
package epoch

import (
	"sync/atomic"

	"lcrq/internal/chaos"
	"lcrq/internal/pad"
)

const (
	// inactive marks an unpinned participant; active participants store
	// epoch|activeBit.
	activeBit = uint64(1) << 63
	// generations ring: retire buckets per record.
	generations = 3
	// advanceInterval amortizes the cost of epoch-advance attempts.
	advanceInterval = 64
)

// Domain groups participants reclaiming one family of *T nodes.
//
//lcrq:padded
type Domain[T any] struct {
	global  atomic.Uint64
	_       pad.Line
	records atomic.Pointer[Record[T]] //lcrq:cold — mutated only on register/unregister
}

// New returns an empty domain.
func New[T any]() *Domain[T] { return &Domain[T]{} }

// Record is one thread's participation state. A Record must not be used
// concurrently.
type Record[T any] struct {
	next   *Record[T] // immutable after insertion
	domain *Domain[T]
	local  atomic.Uint64 // activeBit|epoch while pinned, 0 while not
	inUse  atomic.Bool

	pins    uint64
	buckets [generations][]retired[T]
}

type retired[T any] struct {
	p       *T
	reclaim func(*T)
}

// Acquire returns a participant record, reusing a released one if possible.
func (d *Domain[T]) Acquire() *Record[T] {
	for r := d.records.Load(); r != nil; r = r.next {
		if !r.inUse.Load() && r.inUse.CompareAndSwap(false, true) {
			return r
		}
	}
	r := &Record[T]{domain: d}
	r.inUse.Store(true)
	for {
		head := d.records.Load()
		r.next = head
		if d.records.CompareAndSwap(head, r) {
			return r
		}
	}
}

// Release returns the record to the domain. Outstanding retired nodes stay
// in the record's buckets and are reclaimed by whoever reuses it (or on its
// own later epochs). Releasing a record that is still pinned panics: the
// pin marks an open critical region whose reachable nodes the domain still
// guards, and silently dropping it would hand a protected epoch slot to the
// next Acquire.
func (r *Record[T]) Release() {
	if r.local.Load()&activeBit != 0 {
		panic("epoch: Release of a still-pinned Record; Unpin first")
	}
	r.inUse.Store(false)
}

// Pinned reports whether the record currently holds an open critical
// region. Meaningful only from the owning thread (or once the owner is
// provably gone, as in orphan recovery).
func (r *Record[T]) Pinned() bool { return r.local.Load()&activeBit != 0 }

// Pin enters a critical region: nodes reachable now will not be reclaimed
// until Unpin. Pins must not be nested; a nested Pin panics rather than
// silently moving the open region to a newer epoch (which would void the
// grace-period proof for nodes read before the second Pin).
func (r *Record[T]) Pin() {
	if r.local.Load()&activeBit != 0 {
		panic("epoch: nested Pin on a Record")
	}
	e := r.domain.global.Load()
	// Stall between reading the global epoch and publishing the pin: the
	// window in which an advancing reclaimer may not count this thread.
	chaos.Delay(chaos.EpochWindow)
	r.local.Store(activeBit | e)
	// The atomic store orders the pin before subsequent loads on x86 TSO
	// and establishes the edge the reclaimer's scan needs.
}

// Unpin leaves the critical region. Unpinning a record that is not pinned
// panics — a double Unpin means some critical region's bracket discipline
// is broken, and the next Pin would protect nothing it thinks it does.
func (r *Record[T]) Unpin() {
	if r.local.Load()&activeBit == 0 {
		panic("epoch: Unpin of an unpinned Record")
	}
	r.local.Store(0)
	r.pins++
	if r.pins%advanceInterval == 0 {
		r.tryAdvance()
	}
}

// Retire schedules p for reclamation once two epoch advances have passed.
// Call while pinned.
func (r *Record[T]) Retire(p *T, reclaim func(*T)) {
	if p == nil {
		return
	}
	e := r.domain.global.Load()
	b := e % generations
	r.buckets[b] = append(r.buckets[b], retired[T]{p: p, reclaim: reclaim})
}

// tryAdvance attempts to move the global epoch forward and reclaims this
// record's safe generation. A record pinned in an older epoch blocks the
// advance.
func (r *Record[T]) tryAdvance() {
	d := r.domain
	chaos.Delay(chaos.EpochWindow)
	e := d.global.Load()
	for rec := d.records.Load(); rec != nil; rec = rec.next {
		if l := rec.local.Load(); l&activeBit != 0 && l&^activeBit != e {
			return
		}
	}
	if !d.global.CompareAndSwap(e, e+1) {
		return // someone else advanced; our generation math redoes next time
	}
	// Epoch e+1 begun: generation (e+1)+1 = e+2 ≡ (e-1) mod 3 is the one
	// that will be written next; generation (e+2)%3 holds nodes retired in
	// epoch e-1, which no pinned thread can still see.
	safe := (e + 2) % generations
	for _, rn := range r.buckets[safe] {
		if rn.reclaim != nil {
			rn.reclaim(rn.p)
		}
	}
	r.buckets[safe] = r.buckets[safe][:0]
}

// Flush reclaims everything this record has retired. It is only safe once
// no thread can be pinned (quiescence), e.g. in tests or shutdown paths.
func (r *Record[T]) Flush() {
	for g := range r.buckets {
		for _, rn := range r.buckets[g] {
			if rn.reclaim != nil {
				rn.reclaim(rn.p)
			}
		}
		r.buckets[g] = r.buckets[g][:0]
	}
}

// Stats reports the domain's current epoch, for tests.
func (d *Domain[T]) Stats() (epoch uint64) { return d.global.Load() }
