// Package ccsynch implements Fatourou and Kallimanis' combining
// constructions (PPoPP 2012): CC-Synch, a blocking universal construction
// in which threads announce requests on a SWAP-built list and the thread at
// the head combines, and H-Synch, its hierarchical variant with one
// CC-Synch instance per cluster synchronized by a global lock.
//
// These are the synchronization engines of the CC-Queue and H-Queue
// baselines the LCRQ paper compares against. Requests and responses are a
// single uint64 plus an ok bit, which is exactly what queue operations
// need; the applied function is fixed per instance, so a combiner never
// needs to dispatch.
package ccsynch

import (
	"runtime"
	"sync"
	"sync/atomic"

	"lcrq/internal/instrument"
	"lcrq/internal/pad"
)

// DefaultBound is the maximum number of requests one combiner applies
// before handing the role to the next waiting thread. Fatourou and
// Kallimanis use a small multiple of the thread count.
const DefaultBound = 256

// Op applies one announced request to the protected object and returns its
// response. It runs under combiner exclusivity: at most one Op of a given
// Synch instance executes at a time.
type Op func(arg uint64) (ret uint64, ok bool)

type node struct {
	arg       uint64
	ret       uint64
	retOK     bool
	completed bool
	wait      atomic.Uint32
	next      atomic.Pointer[node]
	_         pad.Line
}

// Synch is one CC-Synch instance protecting the object accessed by op.
//
//lcrq:padded
type Synch struct {
	tail atomic.Pointer[node]
	_    pad.Line
	op   Op
	// combineLock, when non-nil, is acquired for the duration of each
	// combining pass; H-Synch uses it to serialize per-cluster combiners.
	combineLock *sync.Mutex
	bound       int
}

// New returns a CC-Synch instance applying op. bound ≤ 0 selects
// DefaultBound.
func New(op Op, bound int) *Synch {
	if bound <= 0 {
		bound = DefaultBound
	}
	s := &Synch{op: op, bound: bound}
	d := &node{} // initial dummy: wait=0, completed=false → first arrival combines
	s.tail.Store(d)
	return s
}

// Handle is a thread's context for one or more Synch instances. The spare
// node pool is keyed by instance because a node surrendered to instance A's
// list must not be reused on instance B.
type Handle struct {
	C      instrument.Counters
	spares map[*Synch]*node
}

// NewHandle returns an empty handle.
func NewHandle() *Handle { return &Handle{spares: make(map[*Synch]*node)} }

func (h *Handle) spare(s *Synch) *node {
	if n := h.spares[s]; n != nil {
		return n
	}
	return &node{}
}

// Apply announces (arg) and returns its response, combining on behalf of
// other threads when this thread ends up at the head of the announce list.
func (s *Synch) Apply(h *Handle, arg uint64) (uint64, bool) {
	next := h.spare(s)
	next.next.Store(nil)
	next.wait.Store(1)
	next.completed = false

	h.C.Swaps++
	cur := s.tail.Swap(next)
	cur.arg = arg
	cur.next.Store(next)
	h.spares[s] = cur

	for spins := 0; cur.wait.Load() == 1; spins++ {
		if spins%128 == 127 {
			runtime.Gosched()
		}
	}
	if cur.completed {
		return cur.ret, cur.retOK
	}

	// This thread is the combiner.
	if s.combineLock != nil {
		s.combineLock.Lock()
		h.C.LockAcquisitions++
	}
	tmp := cur
	applied := uint64(0)
	for {
		nxt := tmp.next.Load()
		if nxt == nil || applied >= uint64(s.bound) {
			break
		}
		tmp.ret, tmp.retOK = s.op(tmp.arg)
		tmp.completed = true
		tmp.wait.Store(0)
		applied++
		tmp = nxt
	}
	if s.combineLock != nil {
		s.combineLock.Unlock()
	}
	tmp.wait.Store(0) // pass the combiner role to tmp's owner
	h.C.CombinerRuns++
	h.C.Combined += applied
	return cur.ret, cur.retOK
}

// HSynch is the hierarchical construction: requests combine within their
// cluster's CC-Synch instance, and cluster combiners serialize on a global
// lock before touching the shared object.
type HSynch struct {
	instances []*Synch
	lock      sync.Mutex
}

// NewH returns an H-Synch instance applying op across clusters many
// per-cluster CC-Synch instances.
func NewH(op Op, clusters, bound int) *HSynch {
	if clusters < 1 {
		clusters = 1
	}
	hs := &HSynch{}
	hs.instances = make([]*Synch, clusters)
	for i := range hs.instances {
		s := New(op, bound)
		s.combineLock = &hs.lock
		hs.instances[i] = s
	}
	return hs
}

// Apply announces (arg) on the calling thread's cluster instance. cluster
// ids out of range are folded in.
func (hs *HSynch) Apply(h *Handle, cluster int, arg uint64) (uint64, bool) {
	if cluster < 0 {
		cluster = -cluster
	}
	return hs.instances[cluster%len(hs.instances)].Apply(h, arg)
}
