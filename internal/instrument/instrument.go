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

// Counters accumulates per-thread operation statistics. It is the single
// declaration of every counter: lcrq.Stats embeds it, and the Prometheus
// exporter emits one counter series per field that carries a prom tag
// (series name) and a help tag (HELP text). A field without a prom tag is
// not exported. Adding a counter is adding a field here.
type Counters struct {
	Enqueues uint64 `prom:"lcrq_enqueues_total" help:"Completed enqueue operations."`
	Dequeues uint64 `prom:"lcrq_dequeues_total" help:"Completed dequeue operations, empty results included."`
	Empty    uint64 `prom:"lcrq_dequeue_empty_total" help:"Dequeues that found the queue empty."`

	FetchAdds    uint64 `prom:"lcrq_faa_total" help:"Fetch-and-add instructions issued."`
	Swaps        uint64 `prom:"lcrq_swap_total" help:"Swap (XCHG) instructions issued."`
	TestAndSets  uint64 `prom:"lcrq_tas_total" help:"Test-and-set instructions issued."`
	CASAttempts  uint64 `prom:"lcrq_cas_total" help:"Single-width CAS attempts."`
	CASFailures  uint64 `prom:"lcrq_cas_failures_total" help:"Single-width CAS attempts that failed."`
	CAS2Attempts uint64 `prom:"lcrq_cas2_total" help:"Double-width CAS attempts."`
	CAS2Failures uint64 `prom:"lcrq_cas2_failures_total" help:"Double-width CAS attempts that failed."`

	// CRQ and SCQ ring protocol.
	CellRetries       uint64 `prom:"lcrq_cell_retries_total" help:"Extra head/tail fetch-and-adds beyond the first."`
	EmptyTransitions  uint64 `prom:"lcrq_empty_transitions_total" help:"Empty transitions performed by dequeuers."`
	UnsafeTransitions uint64 `prom:"lcrq_unsafe_transitions_total" help:"Unsafe transitions performed by dequeuers."`
	SpinWaits         uint64 `prom:"lcrq_spin_waits_total" help:"Bounded dequeuer waits for a matching enqueuer."`
	RingCloses        uint64 `prom:"lcrq_ring_closes_total" help:"Ring segments closed."`
	ThresholdEmpties  uint64 `prom:"lcrq_threshold_empties_total" help:"SCQ emptiness verdicts reached via the threshold trick."`
	FreeEmpties       uint64 `prom:"lcrq_free_empties_total" help:"SCQ enqueues that found the free-index queue empty (ring full)."`

	// LCRQ list, batches and the LCRQ+H cluster gate.
	RingAppends   uint64 `prom:"lcrq_ring_appends_total" help:"Ring segments appended to the list."`
	RingRecycles  uint64 `prom:"lcrq_ring_recycles_total" help:"Appended segments satisfied from the recycler."`
	BatchEnqueues uint64 `prom:"lcrq_batch_enqueues_total" help:"EnqueueBatch calls (items count in lcrq_enqueues_total)."`
	BatchDequeues uint64 `prom:"lcrq_batch_dequeues_total" help:"DequeueBatch calls (items count in lcrq_dequeues_total)."`
	BatchSpills   uint64 `prom:"lcrq_batch_spills_total" help:"Batches that spilled into a freshly appended ring."`
	GateSpins     uint64 `prom:"lcrq_gate_spins_total" help:"Hierarchical cluster-gate spin iterations."`

	// Item tracing.
	TraceArms uint64 `prom:"lcrq_trace_arms_total" help:"Item traces armed on the enqueue side (sampled + forced)."`
	TraceHits uint64 `prom:"lcrq_trace_hits_total" help:"Stamped items claimed and measured by dequeues."`

	// Combining and blocking baseline queues; not exported.
	CombinerRuns     uint64 // times this thread combined
	Combined         uint64 // operations applied while combining
	LockAcquisitions uint64 // lock acquisitions
}

// Add accumulates o into c, field by field.
func (c *Counters) Add(o *Counters) {
	cv, ov := reflect.ValueOf(c).Elem(), reflect.ValueOf(o).Elem()
	for i := range cv.NumField() {
		f := cv.Field(i)
		f.SetUint(f.Uint() + ov.Field(i).Uint())
	}
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
	atomics := c.FetchAdds + c.Swaps + c.TestAndSets + c.CASAttempts + c.CAS2Attempts
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
	return float64(c.CASFailures+c.CAS2Failures) / float64(ops)
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
	if c.RingCloses+c.RingAppends > 0 {
		fmt.Fprintf(&b, " closes=%d appends=%d recycled=%d", c.RingCloses, c.RingAppends, c.RingRecycles)
	}
	if c.CombinerRuns > 0 {
		fmt.Fprintf(&b, " combiner: runs=%d avg-batch=%.1f", c.CombinerRuns,
			float64(c.Combined)/float64(c.CombinerRuns))
	}
	return b.String()
}
