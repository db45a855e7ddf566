// Package instrument defines the per-operation statistics counters used to
// reproduce Tables 2 and 3 of the LCRQ paper.
//
// The paper reports per-operation latency, instruction counts, atomic
// operation counts, and cache-miss counts obtained from hardware performance
// counters. Hardware counters are not reachable from portable Go, so this
// reproduction substitutes direct software counts of the quantities the
// paper uses those columns to explain: how many atomic instructions an
// operation issues and how much work is wasted on failed CAS attempts and
// protocol retries. See DESIGN.md §1 for the substitution rationale.
//
// Counters are plain (non-atomic) fields: each queue handle owns one Counters
// value that is only mutated by the handle's thread and aggregated after the
// workers have stopped, so counting adds no synchronization to the measured
// fast path.
package instrument

import (
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
)

// Counters accumulates per-thread operation statistics.
type Counters struct {
	Enqueues uint64 // completed enqueue operations
	Dequeues uint64 // completed dequeue operations (including EMPTY)
	Empty    uint64 // dequeues that returned EMPTY

	FAA      uint64 // fetch-and-add instructions issued
	SWAP     uint64 // swap (XCHG) instructions issued
	TAS      uint64 // test-and-set instructions issued
	CAS      uint64 // single-width CAS attempts
	CASFail  uint64 // single-width CAS attempts that failed
	CAS2     uint64 // double-width CAS attempts
	CAS2Fail uint64 // double-width CAS attempts that failed

	CellRetries uint64 // CRQ: extra head/tail F&As needed beyond the first
	EmptyTrans  uint64 // CRQ: empty transitions performed
	UnsafeTrans uint64 // CRQ: unsafe transitions performed
	SpinWaits   uint64 // CRQ: bounded waits for a matching enqueuer
	Closes      uint64 // CRQ: times this thread closed a ring

	ThresholdEmpty uint64 // SCQ: emptiness verdicts reached via the threshold trick
	FreeEmpty      uint64 // SCQ: enqueues that found the free-index queue empty (ring full)

	Appends  uint64 // LCRQ: new CRQs appended to the list
	Recycled uint64 // LCRQ: appended CRQs that came from the recycler

	BatchEnqueues uint64 // LCRQ: EnqueueBatch calls (constituent items count in Enqueues)
	BatchDequeues uint64 // LCRQ: DequeueBatch calls (constituent items count in Dequeues)
	BatchSpill    uint64 // LCRQ: batches that spilled into a freshly appended ring
	GateSpins     uint64 // LCRQ+H: cluster admission gate spin iterations

	TraceArms uint64 // tracing: enqueue-side stamps armed (sampled + forced)
	TraceHits uint64 // tracing: stamped items claimed by this thread's dequeues

	CombinerRuns uint64 // combining queues: times this thread combined
	Combined     uint64 // combining queues: operations applied while combining
	LockAcq      uint64 // lock acquisitions (blocking queues)
}

// Add accumulates o into c. The mirror annotation makes lcrqlint's
// statsmirror analyzer verify that no Counters field is dropped from the
// sum; TestAddAccumulatesEveryField is the runtime backstop.
//
//lcrq:mirror Counters
func (c *Counters) Add(o *Counters) {
	c.Enqueues += o.Enqueues
	c.Dequeues += o.Dequeues
	c.Empty += o.Empty
	c.FAA += o.FAA
	c.SWAP += o.SWAP
	c.TAS += o.TAS
	c.CAS += o.CAS
	c.CASFail += o.CASFail
	c.CAS2 += o.CAS2
	c.CAS2Fail += o.CAS2Fail
	c.CellRetries += o.CellRetries
	c.EmptyTrans += o.EmptyTrans
	c.UnsafeTrans += o.UnsafeTrans
	c.SpinWaits += o.SpinWaits
	c.Closes += o.Closes
	c.ThresholdEmpty += o.ThresholdEmpty
	c.FreeEmpty += o.FreeEmpty
	c.Appends += o.Appends
	c.Recycled += o.Recycled
	c.BatchEnqueues += o.BatchEnqueues
	c.BatchDequeues += o.BatchDequeues
	c.BatchSpill += o.BatchSpill
	c.GateSpins += o.GateSpins
	c.TraceArms += o.TraceArms
	c.TraceHits += o.TraceHits
	c.CombinerRuns += o.CombinerRuns
	c.Combined += o.Combined
	c.LockAcq += o.LockAcq
}

// Ops returns the total number of completed operations.
func (c *Counters) Ops() uint64 { return c.Enqueues + c.Dequeues }

// AtomicsPerOp returns the average number of atomic instructions (F&A, SWAP,
// T&S, CAS, CAS2) issued per completed operation — the "Atomic operations"
// row of Tables 2 and 3.
func (c *Counters) AtomicsPerOp() float64 {
	ops := c.Ops()
	if ops == 0 {
		return 0
	}
	atomics := c.FAA + c.SWAP + c.TAS + c.CAS + c.CAS2
	return float64(atomics) / float64(ops)
}

// CASFailuresPerOp returns the average number of failed CAS and CAS2
// attempts per completed operation — the quantity the paper identifies as
// the cause of contention meltdowns.
func (c *Counters) CASFailuresPerOp() float64 {
	ops := c.Ops()
	if ops == 0 {
		return 0
	}
	return float64(c.CASFail+c.CAS2Fail) / float64(ops)
}

// NumFields returns the number of counter fields in Counters. Every field is
// a uint64, a property AtomicCounters relies on (and a test enforces).
func NumFields() int { return counterType.NumField() }

var counterType = reflect.TypeOf(Counters{})

// AtomicCounters is an atomically readable mirror of a Counters value: the
// owning thread Stores its plain counters into it at a coarse cadence, and
// any thread may Load a torn-free (per-field consistent) copy concurrently.
// This is the publication half of the telemetry layer's counter aggregation:
// the fast path keeps its plain single-writer fields, and only the amortized
// publication touches atomics. Field mapping is by reflection over Counters,
// so newly added counters are picked up automatically.
type AtomicCounters struct {
	v []atomic.Uint64
}

// NewAtomicCounters returns an empty mirror sized to Counters.
func NewAtomicCounters() *AtomicCounters {
	return &AtomicCounters{v: make([]atomic.Uint64, NumFields())}
}

// Store publishes a snapshot of c. Only the owner of c may call Store, and
// not concurrently with itself.
func (a *AtomicCounters) Store(c *Counters) {
	rv := reflect.ValueOf(c).Elem()
	for i := range a.v {
		a.v[i].Store(rv.Field(i).Uint())
	}
}

// Load returns the most recently published snapshot. Safe to call from any
// thread; fields published by different Store calls may be mixed, which is
// fine for monotone counters read for monitoring.
func (a *AtomicCounters) Load() Counters {
	var c Counters
	rv := reflect.ValueOf(&c).Elem()
	for i := range a.v {
		rv.Field(i).SetUint(a.v[i].Load())
	}
	return c
}

// String renders the counters in a compact single-line form for logs.
func (c *Counters) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ops=%d (enq=%d deq=%d empty=%d)", c.Ops(), c.Enqueues, c.Dequeues, c.Empty)
	fmt.Fprintf(&b, " atomics/op=%.2f casfail/op=%.3f", c.AtomicsPerOp(), c.CASFailuresPerOp())
	if c.Closes+c.Appends > 0 {
		fmt.Fprintf(&b, " closes=%d appends=%d recycled=%d", c.Closes, c.Appends, c.Recycled)
	}
	if c.CombinerRuns > 0 {
		fmt.Fprintf(&b, " combiner: runs=%d avg-batch=%.1f", c.CombinerRuns,
			float64(c.Combined)/float64(c.CombinerRuns))
	}
	return b.String()
}
