package core

import (
	"runtime"
	"sync/atomic"
	"time"

	"lcrq/internal/epoch"
	"lcrq/internal/hazard"
	"lcrq/internal/instrument"
	"lcrq/internal/xrand"
)

// Hazard-pointer slot assignments within a handle.
const (
	hpHead  = iota // protects the CRQ a dequeue works in
	hpTail         // protects the CRQ an enqueue works in
	hpSlots        // total slots per record
)

// Handle is a per-thread context for queue operations. Each worker thread
// (goroutine) must use its own Handle; a Handle must never be used
// concurrently. Handles carry the thread's hazard-pointer record, its
// cluster identity for the hierarchical variant, and the instrumentation
// counters for Tables 2 and 3.
type Handle struct {
	// C accumulates this thread's operation statistics. Reading it is only
	// meaningful while the handle is quiescent.
	C instrument.Counters

	// Cluster is the thread's cluster (processor package) id, used by the
	// LCRQ+H variant. The harness assigns it from the placement policy;
	// standalone users can leave it 0.
	Cluster int64

	// rng drives Jitter. Single-writer like C; every handle gets its own
	// uncorrelated stream (seedJitter) so waiter herds do not wake in
	// lockstep.
	rng xrand.State

	hp       *hazard.Record[CRQ] // non-nil in ReclaimHazard mode
	ep       *epoch.Record[CRQ]  // non-nil in ReclaimEpoch mode
	owner    *LCRQ
	guard    *recoveryGuard // orphan-recovery finalizer anchor; nil in GC mode
	released bool

	// Item-trace state (see trace.go). All single-writer, owned by the
	// handle's goroutine like C; the dequeue-side hit buffer is fixed-size so
	// recording a hit never allocates on the hot path.
	traceSampleN   int    // sampling stride copied from Config (0 = no self-arming)
	traceCountdown int    // enqueues until the next sampled arm
	traceRand      uint64 // xorshift64 state: trace IDs + countdown phase
	traceArmed     bool   // the next deposited value gets a stamp
	traceForced    bool   // armed by ForceTrace rather than the sampler
	traceID        uint64 // the ID to stamp while armed
	lastEnqTraced  bool   // the most recent enqueue op deposited a stamp
	lastEnqID      uint64
	traceHits      int // stamped items claimed by the most recent dequeue op
	traceHitBuf    [traceBatchMax]TraceHit
}

// recoveryGuard recovers the reclamation record of a handle that is leaked
// instead of Released: a goroutine that exits (or panics away) without
// Release would otherwise leave a hazard record permanently active — or,
// worse, an epoch record permanently pinned, freezing reclamation for the
// whole queue.
//
// The guard deliberately holds the record and queue pointers itself rather
// than the Handle: a finalizer's closure is a GC root, so a finalizer that
// referenced the Handle would keep the Handle reachable forever and never
// run. The guard is only reachable *from* the Handle, so once the Handle is
// garbage the guard's finalizer fires and returns the record. Release
// disarms the finalizer first, making the orderly path free of it.
type recoveryGuard struct {
	hp *hazard.Record[CRQ]
	ep *epoch.Record[CRQ]
	q  *LCRQ
}

// recover is the guard's finalizer: return the orphaned record and account
// the leak. The record cannot be in concurrent use — the finalizer only
// runs once the owning Handle is unreachable, and Handles are
// single-threaded by contract.
func (g *recoveryGuard) recover() {
	if g.ep != nil {
		// A leaked handle may have died pinned (goroutine killed by panic
		// between Pin and Unpin is impossible — exit() is deferred — but a
		// handle abandoned mid-API-misuse may be). Unpin before Release so
		// the record pool never receives a pinned record.
		if g.ep.Pinned() {
			g.ep.Unpin()
		}
		g.ep.Release()
	}
	if g.hp != nil {
		g.hp.Release()
	}
	g.q.orphans.Add(1)
	g.q.tap(EvOrphanRecover)
}

// armRecovery attaches the orphan-recovery finalizer to h.
func (h *Handle) armRecovery(q *LCRQ) {
	g := &recoveryGuard{hp: h.hp, ep: h.ep, q: q}
	h.guard = g
	runtime.SetFinalizer(g, (*recoveryGuard).recover)
}

// Release returns the handle's reclamation record to its queue's domain.
// The handle must not be used afterwards. Releasing a handle twice panics:
// the second release would hand the same reclamation record to two future
// handles, silently corrupting the hazard/epoch domain's record pool.
func (h *Handle) Release() {
	if h.released {
		panic("core: Handle released twice; a released handle must not be reused")
	}
	h.released = true
	if h.guard != nil {
		runtime.SetFinalizer(h.guard, nil)
		h.guard = nil
	}
	if h.hp != nil {
		h.hp.Release()
		h.hp = nil
	}
	if h.ep != nil {
		h.ep.Release()
		h.ep = nil
	}
	h.owner = nil
}

// NewHandle returns a detached handle suitable for standalone CRQ use and
// for tests. Handles used with an LCRQ must come from (*LCRQ).NewHandle.
func NewHandle() *Handle {
	h := &Handle{}
	h.seedJitter()
	return h
}

// jitterSeeds derives a distinct RNG seed per handle without consulting the
// clock; Seed's SplitMix64 diffusion turns the consecutive values into
// uncorrelated streams.
var jitterSeeds atomic.Uint64

// seedJitter gives the handle its own Jitter stream. Called for every
// handle a queue issues.
func (h *Handle) seedJitter() { h.rng.Seed(jitterSeeds.Add(1)) }

// Jitter spreads d uniformly over [d/2, 3d/2], preserving the mean. The
// public wait loops (EnqueueWait/DequeueWait) jitter every sleep and the
// LCRQ+H cluster gate jitters its deadline, so synchronized waiters do not
// retry in lockstep.
//
//lcrq:hotpath
func (h *Handle) Jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	return d/2 + time.Duration(h.rng.Uintn(uint64(d)+1))
}
