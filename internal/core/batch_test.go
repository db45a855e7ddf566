package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lcrq/internal/linearize"
	"lcrq/internal/xrand"
)

// tapCount is a Tap that tallies ring events for assertions.
type tapCount struct {
	counts [NumRingEvents]atomic.Uint64
}

func (t *tapCount) RingEvent(ev RingEvent) { t.counts[ev].Add(1) }

// TestBatchFIFO checks the basic contract: a batch of k values dequeues in
// exactly the order it was enqueued, interchangeably with single ops.
func TestBatchFIFO(t *testing.T) {
	q := NewLCRQ(Config{})
	h := q.NewHandle()
	defer h.Release()

	vs := make([]uint64, 10)
	for i := range vs {
		vs[i] = uint64(i) + 1
	}
	if n, st := q.EnqueueBatch(h, vs); n != len(vs) || st != EnqOK {
		t.Fatalf("EnqueueBatch = %d,%v, want %d,EnqOK", n, st, len(vs))
	}
	if !q.Enqueue(h, 11) {
		t.Fatal("single enqueue after batch failed")
	}

	out := make([]uint64, 7)
	n := q.DequeueBatch(h, out)
	if n != 7 {
		t.Fatalf("DequeueBatch = %d, want 7", n)
	}
	for i, v := range out[:n] {
		if v != uint64(i)+1 {
			t.Fatalf("out[%d] = %d, want %d (FIFO violated)", i, v, i+1)
		}
	}
	for want := uint64(8); want <= 11; want++ {
		v, ok := q.Dequeue(h)
		if !ok || v != want {
			t.Fatalf("single dequeue = %d,%v, want %d,true", v, ok, want)
		}
	}
	if _, ok := q.Dequeue(h); ok {
		t.Fatal("queue should be empty")
	}
}

// TestBatchFAAAmortization is the tentpole's acceptance check: a batched
// enqueue+dequeue of k items must issue roughly 1/k the fetch-and-adds of k
// single operations. The counts are deterministic when uncontended — one
// F&A per single op, one per batch reservation — so the assertion is on
// instrument counter values, not wall-clock.
func TestBatchFAAAmortization(t *testing.T) {
	const k = 64

	single := NewLCRQ(Config{})
	hs := single.NewHandle()
	defer hs.Release()
	for i := 0; i < k; i++ {
		single.Enqueue(hs, uint64(i)+1)
	}
	for i := 0; i < k; i++ {
		if _, ok := single.Dequeue(hs); !ok {
			t.Fatalf("single dequeue %d failed", i)
		}
	}
	singleFAA := hs.C.FetchAdds
	if singleFAA < 2*k {
		t.Fatalf("single-op baseline issued %d F&As, want >= %d", singleFAA, 2*k)
	}

	batched := NewLCRQ(Config{})
	hb := batched.NewHandle()
	defer hb.Release()
	vs := make([]uint64, k)
	for i := range vs {
		vs[i] = uint64(i) + 1
	}
	if n, st := batched.EnqueueBatch(hb, vs); n != k || st != EnqOK {
		t.Fatalf("EnqueueBatch = %d,%v, want %d,EnqOK", n, st, k)
	}
	out := make([]uint64, k)
	if n := batched.DequeueBatch(hb, out); n != k {
		t.Fatalf("DequeueBatch = %d, want %d", n, k)
	}
	batchFAA := hb.C.FetchAdds

	// One reservation per direction, uncontended: 2 F&As for 2k item ops.
	// Leave a little slack for protocol retries, but insist on an order-of-k
	// amortization, not a constant-factor one.
	if batchFAA > singleFAA/(k/4) {
		t.Fatalf("batched ops issued %d F&As vs %d for singles; want ~1/%d, got worse than 1/%d",
			batchFAA, singleFAA, k, k/4)
	}
	if hb.C.BatchEnqueues != 1 || hb.C.BatchDequeues != 1 {
		t.Fatalf("batch call counters = %d,%d, want 1,1", hb.C.BatchEnqueues, hb.C.BatchDequeues)
	}
}

// TestEnqueueBatchSpill drives a batch far larger than the ring through the
// spill path: the batch must land completely, in order, across several
// freshly appended rings, and the spill counter must see it.
func TestEnqueueBatchSpill(t *testing.T) {
	const k = 40
	q := NewLCRQ(Config{RingOrder: 2}) // 4-cell rings
	h := q.NewHandle()
	defer h.Release()

	vs := make([]uint64, k)
	for i := range vs {
		vs[i] = uint64(i) + 1
	}
	if n, st := q.EnqueueBatch(h, vs); n != k || st != EnqOK {
		t.Fatalf("EnqueueBatch = %d,%v, want %d,EnqOK", n, st, k)
	}
	if h.C.BatchSpills == 0 {
		t.Fatal("a batch 10x the ring size never spilled into a new ring")
	}
	if h.C.RingAppends == 0 {
		t.Fatal("spilling batch appended no rings")
	}
	out := make([]uint64, k)
	got := 0
	for got < k {
		n := q.DequeueBatch(h, out[got:])
		if n == 0 {
			t.Fatalf("queue empty after %d of %d items", got, k)
		}
		got += n
	}
	for i := 0; i < k; i++ {
		if out[i] != uint64(i)+1 {
			t.Fatalf("out[%d] = %d, want %d (FIFO violated across spill)", i, out[i], i+1)
		}
	}
}

// TestDequeueBatchEmptyAndPartial checks the two short-return shapes: an
// empty queue answers 0 without issuing any F&A (the reservation is clamped
// to the observed population first), and a batch wider than the population
// returns exactly what is there.
func TestDequeueBatchEmptyAndPartial(t *testing.T) {
	q := NewLCRQ(Config{})
	h := q.NewHandle()
	defer h.Release()

	out := make([]uint64, 8)
	before := h.C.FetchAdds
	if n := q.DequeueBatch(h, out); n != 0 {
		t.Fatalf("DequeueBatch on empty queue = %d, want 0", n)
	}
	if h.C.FetchAdds != before {
		t.Fatalf("empty DequeueBatch issued %d F&As, want 0", h.C.FetchAdds-before)
	}
	if h.C.Empty == 0 {
		t.Fatal("empty batch did not count as an empty dequeue")
	}

	for i := uint64(1); i <= 3; i++ {
		q.Enqueue(h, i)
	}
	if n := q.DequeueBatch(h, out); n != 3 {
		t.Fatalf("DequeueBatch over 3 items = %d, want 3", n)
	}
	for i := uint64(0); i < 3; i++ {
		if out[i] != i+1 {
			t.Fatalf("out[%d] = %d, want %d", i, out[i], i+1)
		}
	}
	// The queue must remain fully usable after the partial batch.
	if !q.Enqueue(h, 9) {
		t.Fatal("enqueue after partial batch failed")
	}
	if v, ok := q.Dequeue(h); !ok || v != 9 {
		t.Fatalf("dequeue after partial batch = %d,%v, want 9,true", v, ok)
	}
}

// TestBatchBoundedPartialAcceptance checks the §9 reserve-then-publish
// invariant under batches: a capacity-bounded queue accepts exactly the
// budget's worth of a too-large batch, refunds the rest, and the exact item
// account never drifts.
func TestBatchBoundedPartialAcceptance(t *testing.T) {
	const cap = 10
	q := NewLCRQ(Config{Capacity: cap})
	h := q.NewHandle()
	defer h.Release()

	vs := make([]uint64, 25)
	for i := range vs {
		vs[i] = uint64(i) + 1
	}
	n, st := q.EnqueueBatch(h, vs)
	if n != cap || st != EnqFull {
		t.Fatalf("EnqueueBatch over capacity = %d,%v, want %d,EnqFull", n, st, cap)
	}
	if got := q.Items(); got != cap {
		t.Fatalf("Items() = %d, want %d (refund failed)", got, cap)
	}
	if q.CapacityRejects() == 0 {
		t.Fatal("partial acceptance did not count a capacity rejection")
	}

	out := make([]uint64, cap)
	if got := q.DequeueBatch(h, out); got != cap {
		t.Fatalf("DequeueBatch = %d, want %d", got, cap)
	}
	for i := 0; i < cap; i++ {
		if out[i] != uint64(i)+1 {
			t.Fatalf("out[%d] = %d, want %d (rejected tail leaked in)", i, out[i], i+1)
		}
	}
	if got := q.Items(); got != 0 {
		t.Fatalf("Items() after drain = %d, want 0", got)
	}

	// With budget free again the same batch prefix is accepted whole.
	if n, st := q.EnqueueBatch(h, vs[:cap]); n != cap || st != EnqOK {
		t.Fatalf("EnqueueBatch after drain = %d,%v, want %d,EnqOK", n, st, cap)
	}
	if got := q.Items(); got != cap {
		t.Fatalf("Items() = %d, want %d", got, cap)
	}
}

// TestBatchClose checks close semantics: a batch against a closed queue
// reports EnqClosed with nothing accepted, and batches drain a closed
// queue's remaining items normally.
func TestBatchClose(t *testing.T) {
	q := NewLCRQ(Config{})
	h := q.NewHandle()
	defer h.Release()

	if n, st := q.EnqueueBatch(h, []uint64{1, 2, 3}); n != 3 || st != EnqOK {
		t.Fatalf("EnqueueBatch = %d,%v, want 3,EnqOK", n, st)
	}
	q.Close(h)
	if n, st := q.EnqueueBatch(h, []uint64{4, 5}); n != 0 || st != EnqClosed {
		t.Fatalf("EnqueueBatch after close = %d,%v, want 0,EnqClosed", n, st)
	}
	out := make([]uint64, 8)
	if n := q.DequeueBatch(h, out); n != 3 {
		t.Fatalf("DequeueBatch after close = %d, want 3", n)
	}
	for i := uint64(0); i < 3; i++ {
		if out[i] != i+1 {
			t.Fatalf("out[%d] = %d, want %d", i, out[i], i+1)
		}
	}
	if n := q.DequeueBatch(h, out); n != 0 {
		t.Fatalf("DequeueBatch on drained closed queue = %d, want 0", n)
	}
}

// TestCapacityEpisodeReset is the regression test for the bounded-mode
// episode bug: the full flag used to stay set after consumers drained the
// queue (only a later successful enqueue cleared it), so a fill→drain→fill
// cycle ended by the consumer left the EvCapacityReject tap disarmed and
// FullEpisode stuck at true. Each cycle must emit exactly one
// EvCapacityReject and the episode must end when the drain frees budget.
func TestCapacityEpisodeReset(t *testing.T) {
	t.Run("capacity", func(t *testing.T) {
		const cap = 4
		tap := &tapCount{}
		q := NewLCRQ(Config{Capacity: cap, Tap: tap})
		h := q.NewHandle()
		defer h.Release()

		for cycle := uint64(1); cycle <= 3; cycle++ {
			for i := uint64(0); i < cap; i++ {
				if st := q.EnqueueStatus(h, cycle<<32|i+1); st != EnqOK {
					t.Fatalf("cycle %d: fill %d: status %v", cycle, i, st)
				}
			}
			// Several rejected attempts — one episode, one tap event.
			for i := 0; i < 5; i++ {
				if st := q.EnqueueStatus(h, 999); st != EnqFull {
					t.Fatalf("cycle %d: overfill attempt %d: status %v, want EnqFull", cycle, i, st)
				}
			}
			if !q.FullEpisode() {
				t.Fatalf("cycle %d: no full episode after rejection", cycle)
			}
			if got := tap.counts[EvCapacityReject].Load(); got != cycle {
				t.Fatalf("cycle %d: EvCapacityReject count = %d, want %d (dedup broken)", cycle, got, cycle)
			}
			for i := 0; i < cap; i++ {
				if _, ok := q.Dequeue(h); !ok {
					t.Fatalf("cycle %d: drain %d failed", cycle, i)
				}
			}
			// The consumer ended the episode: budget is free, so the flag
			// must be down even though no producer has succeeded since.
			if q.FullEpisode() {
				t.Fatalf("cycle %d: full episode survived a complete drain", cycle)
			}
		}
	})

	t.Run("max-rings", func(t *testing.T) {
		const maxRings = 2
		tap := &tapCount{}
		q := NewLCRQ(Config{RingOrder: 1, MaxRings: maxRings, Tap: tap})
		h := q.NewHandle()
		defer h.Release()

		// Fill until the ring budget rejects (rings close as they fill, and
		// the chain may not grow past maxRings).
		filled := 0
		for q.EnqueueStatus(h, uint64(filled)+1) == EnqOK {
			filled++
			if filled > 1000 {
				t.Fatal("ring budget never bound")
			}
		}
		if !q.FullEpisode() {
			t.Fatal("no full episode after ring-budget rejection")
		}
		if tap.counts[EvCapacityReject].Load() != 1 {
			t.Fatalf("EvCapacityReject count = %d, want 1", tap.counts[EvCapacityReject].Load())
		}
		// Drain completely: ring retirement frees budget and must end the
		// episode without any producer succeeding.
		for i := 0; i < filled; i++ {
			if _, ok := q.Dequeue(h); !ok {
				t.Fatalf("drain %d of %d failed", i, filled)
			}
		}
		if q.FullEpisode() {
			t.Fatal("full episode survived a complete drain (ring-budget mode)")
		}
	})
}

// TestClusterGateSpins checks the hoisted-clock gate: an operation arriving
// from a foreign cluster spins (counted in GateSpins) until the timeout,
// then claims the ring and completes — and the spin loop consults the clock
// rarely enough that the count is well above the pre-fix one-check-per-spin
// pace would allow in the same wall time.
func TestClusterGateSpins(t *testing.T) {
	q := NewLCRQ(Config{Hierarchical: true, ClusterTimeout: time.Millisecond})
	h0 := q.NewHandle()
	defer h0.Release()
	h0.Cluster = 0
	if !q.Enqueue(h0, 1) { // claims the ring for cluster 0
		t.Fatal("cluster-0 enqueue failed")
	}

	h1 := q.NewHandle()
	defer h1.Release()
	h1.Cluster = 1
	// No cluster-0 thread is active, so the gate must spin out its full
	// timeout and then barge in; the operation still completes.
	if !q.Enqueue(h1, 2) {
		t.Fatal("cluster-1 enqueue failed")
	}
	if h1.C.GateSpins == 0 {
		t.Fatal("foreign-cluster operation recorded no gate spins")
	}
	v, ok := q.Dequeue(h1)
	if !ok || v != 1 {
		t.Fatalf("dequeue = %d,%v, want 1,true", v, ok)
	}
}

// TestBatchLinearizable records genuinely concurrent histories of batch
// operations, decomposes every batch into its constituent single-item ops
// (a batch of k linearizes as k consecutive ops sharing the batch's
// interval), and verifies each history with the exhaustive checker.
func TestBatchLinearizable(t *testing.T) {
	const (
		rounds  = 30
		threads = 3
		batches = 3
	)
	for round := 0; round < rounds; round++ {
		q := NewLCRQ(Config{RingOrder: 1, StarvationLimit: 4})
		rec := linearize.NewRecorder(threads)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for th := 0; th < threads; th++ {
			wg.Add(1)
			go func(th int) {
				defer wg.Done()
				h := q.NewHandle()
				defer h.Release()
				rng := xrand.New(uint64(round)*1000 + uint64(th) + 1)
				<-start
				for i := 0; i < batches; i++ {
					k := int(rng.Uintn(2)) + 1 // batch of 1 or 2 (checker is exponential)
					if rng.Uint64()%2 == 0 {
						vs := make([]uint64, k)
						for j := range vs {
							vs[j] = uint64(th)<<32 | uint64(i)<<8 | uint64(j) + 1
						}
						inv := rec.Now()
						n, _ := q.EnqueueBatch(h, vs)
						ret := rec.Now()
						for _, v := range vs[:n] {
							rec.Append(th, linearize.Op{
								Kind: linearize.Enq, Value: v,
								Invoke: inv, Return: ret,
							})
						}
					} else {
						out := make([]uint64, k)
						inv := rec.Now()
						n := q.DequeueBatch(h, out)
						ret := rec.Now()
						if n == 0 {
							rec.Append(th, linearize.Op{
								Kind: linearize.Deq, OK: false,
								Invoke: inv, Return: ret,
							})
							continue
						}
						for _, v := range out[:n] {
							rec.Append(th, linearize.Op{
								Kind: linearize.Deq, Value: v, OK: true,
								Invoke: inv, Return: ret,
							})
						}
					}
				}
			}(th)
		}
		close(start)
		wg.Wait()
		hist := rec.History()
		if !linearize.Check(hist) {
			t.Fatalf("round %d: non-linearizable batch history:\n%v", round, hist)
		}
	}
}
