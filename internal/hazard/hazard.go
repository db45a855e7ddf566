// Package hazard implements hazard pointers (Michael, IEEE TPDS 2004), the
// safe-memory-reclamation scheme the LCRQ paper uses to protect an
// operation's reference to the CRQ it is about to access.
//
// Go's garbage collector already makes use-after-free impossible, so unlike
// in the paper's C implementation hazard pointers are not needed here for
// memory safety. They are needed for something subtler: *reuse*. A retired
// CRQ ring is megabytes of cache-hot memory; recycling it into the next
// appended CRQ instead of letting the GC reclaim it keeps allocation off the
// enqueue path (the paper achieves the same with jemalloc). A ring may only
// be recycled once no thread can still perform transitions on its cells, and
// that is exactly the guarantee hazard pointers provide. Keeping them also
// preserves the paper's per-operation overhead: "writing the CRQ's address
// to a thread-private location, issuing a memory fence, and rereading the
// LCRQ's head/tail" (§5, footnote 6).
//
// The domain is generic over the protected node type. Each participating
// thread owns a Record with a fixed number of hazard slots; records are
// acquired once per thread and can be returned to a free list when the
// thread leaves.
package hazard

import (
	"sync/atomic"

	"lcrq/internal/chaos"
)

// Domain groups the hazard-pointer records that protect one family of nodes
// of type T, together with the retired-node lists awaiting reclamation.
type Domain[T any] struct {
	// head of the global record list; records are never removed, only
	// marked inactive and reused, as in Michael's original scheme.
	records  atomic.Pointer[Record[T]]
	slots    int
	nrecords atomic.Int64
}

// DefaultScanThreshold is the per-record retirement batch: a record scans
// once its retired list holds DefaultScanThreshold × (number of records)
// entries. That bounds a record's list at that many entries, of which at
// most slots × records can survive a scan, while keeping scans O(H)
// amortized.
const DefaultScanThreshold = 8

// New creates a Domain whose records each hold slots hazard pointers.
func New[T any](slots int) *Domain[T] {
	if slots <= 0 {
		panic("hazard: slots must be positive")
	}
	return &Domain[T]{slots: slots}
}

// Record is one thread's set of hazard slots plus its private retired list.
// A Record must not be used concurrently.
type Record[T any] struct {
	next    *Record[T] // immutable after insertion
	domain  *Domain[T]
	active  atomic.Bool
	hps     []atomic.Pointer[T]
	retired []retiredNode[T]
}

type retiredNode[T any] struct {
	p       *T
	reclaim func(*T)
}

// Acquire returns a Record for the calling thread, reusing an inactive one
// when possible.
func (d *Domain[T]) Acquire() *Record[T] {
	for r := d.records.Load(); r != nil; r = r.next {
		if !r.active.Load() && r.active.CompareAndSwap(false, true) {
			return r
		}
	}
	r := &Record[T]{domain: d, hps: make([]atomic.Pointer[T], d.slots)}
	r.active.Store(true)
	for {
		head := d.records.Load()
		r.next = head
		if d.records.CompareAndSwap(head, r) {
			d.nrecords.Add(1)
			return r
		}
	}
}

// Release returns the record to the domain. Outstanding retired nodes are
// handed to the reclaimers immediately if unprotected, or kept for a later
// scan by whoever reuses the record. All hazard slots are cleared.
func (r *Record[T]) Release() {
	for i := range r.hps {
		r.hps[i].Store(nil)
	}
	r.scan()
	r.active.Store(false)
}

// Protect publishes p in hazard slot i and returns p. The caller must then
// validate that p is still reachable (e.g. reread the shared pointer it was
// loaded from) before dereferencing; the usual pattern is the load-publish-
// recheck loop in ProtectPtr.
func (r *Record[T]) Protect(i int, p *T) *T {
	r.hps[i].Store(p) // atomic store doubles as the required fence
	return p
}

// ProtectPtr repeatedly loads *src, publishes the loaded pointer in slot i,
// and rereads *src until the two agree, guaranteeing that the returned node
// was reachable from src after the hazard pointer was visible.
func (r *Record[T]) ProtectPtr(i int, src *atomic.Pointer[T]) *T {
	for {
		p := src.Load()
		// The load→publish window is the classic hazard-pointer race: a
		// retirer that scans here does not yet see our claim on p.
		chaos.Delay(chaos.HazardWindow)
		r.hps[i].Store(p)
		if src.Load() == p {
			return p
		}
	}
}

// Clear empties hazard slot i.
func (r *Record[T]) Clear(i int) { r.hps[i].Store(nil) }

// Retire schedules p for reclamation once no hazard pointer protects it.
// reclaim is invoked at most once, from whichever thread's scan observes the
// node unprotected.
func (r *Record[T]) Retire(p *T, reclaim func(*T)) {
	if p == nil {
		return
	}
	r.retired = append(r.retired, retiredNode[T]{p: p, reclaim: reclaim})
	// Scale the batch with the number of participants so scans stay O(H)
	// amortized, as in the original paper.
	threshold := DefaultScanThreshold * int(r.domain.nrecords.Load())
	if len(r.retired) >= threshold {
		r.scan()
	}
}

// scan reclaims every retired node not currently protected by any record.
func (r *Record[T]) scan() {
	if len(r.retired) == 0 {
		return
	}
	// Delay between retirement and the protection snapshot, widening the
	// window a concurrent ProtectPtr must win to keep its node alive.
	chaos.Delay(chaos.HazardWindow)
	protected := make(map[*T]struct{}, 16)
	for rec := r.domain.records.Load(); rec != nil; rec = rec.next {
		for i := range rec.hps {
			if p := rec.hps[i].Load(); p != nil {
				protected[p] = struct{}{}
			}
		}
	}
	kept := r.retired[:0]
	for _, rn := range r.retired {
		if _, ok := protected[rn.p]; ok {
			kept = append(kept, rn)
			continue
		}
		if rn.reclaim != nil {
			rn.reclaim(rn.p)
		}
	}
	// Drop reclaimed entries; zero the tail so reclaimed nodes are not
	// retained by the backing array.
	for i := len(kept); i < len(r.retired); i++ {
		r.retired[i] = retiredNode[T]{}
	}
	r.retired = kept
}

// Stats reports the domain's record count, for tests and debugging.
func (d *Domain[T]) Stats() (records int64) { return d.nrecords.Load() }
