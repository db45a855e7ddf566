package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func newSmallLCRQ(order int) *LCRQ {
	return NewLCRQ(Config{RingOrder: order, NoPadding: true})
}

func TestLCRQSequentialFIFO(t *testing.T) {
	q := newSmallLCRQ(4)
	h := q.NewHandle()
	defer h.Release()
	for i := uint64(0); i < 100; i++ {
		q.Enqueue(h, i+1)
	}
	for i := uint64(0); i < 100; i++ {
		v, ok := q.Dequeue(h)
		if !ok || v != i+1 {
			t.Fatalf("dequeue %d = (%d,%v)", i, v, ok)
		}
	}
	if _, ok := q.Dequeue(h); ok {
		t.Fatal("empty queue returned a value")
	}
}

// TestLCRQUnbounded exceeds a tiny ring many times over, forcing ring
// appends, head swings, and recycling.
func TestLCRQUnbounded(t *testing.T) {
	q := newSmallLCRQ(2) // R = 4
	h := q.NewHandle()
	defer h.Release()
	const n = 1000
	for i := uint64(0); i < n; i++ {
		q.Enqueue(h, i+1)
	}
	for i := uint64(0); i < n; i++ {
		v, ok := q.Dequeue(h)
		if !ok || v != i+1 {
			t.Fatalf("dequeue %d = (%d,%v)", i, v, ok)
		}
	}
	if h.C.RingAppends == 0 {
		t.Fatal("expected ring appends with R=4 and 1000 items")
	}
}

func TestLCRQAlternating(t *testing.T) {
	q := newSmallLCRQ(3)
	h := q.NewHandle()
	defer h.Release()
	for i := uint64(0); i < 500; i++ {
		q.Enqueue(h, i+1)
		v, ok := q.Dequeue(h)
		if !ok || v != i+1 {
			t.Fatalf("iter %d: (%d,%v)", i, v, ok)
		}
		if _, ok := q.Dequeue(h); ok {
			t.Fatalf("iter %d: queue should be empty", i)
		}
	}
}

func TestLCRQEnqueueBottomPanics(t *testing.T) {
	q := newSmallLCRQ(3)
	h := q.NewHandle()
	defer h.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	q.Enqueue(h, Bottom)
}

func TestLCRQModelEquivalence(t *testing.T) {
	f := func(ops []byte) bool {
		q := newSmallLCRQ(2)
		h := q.NewHandle()
		defer h.Release()
		var model []uint64
		next := uint64(1)
		for _, op := range ops {
			if op%3 != 0 { // bias toward enqueues to grow the list
				q.Enqueue(h, next)
				model = append(model, next)
				next++
			} else {
				v, ok := q.Dequeue(h)
				if len(model) == 0 {
					if ok {
						return false
					}
				} else {
					if !ok || v != model[0] {
						return false
					}
					model = model[1:]
				}
			}
		}
		for _, want := range model {
			if v, ok := q.Dequeue(h); !ok || v != want {
				return false
			}
		}
		_, ok := q.Dequeue(h)
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestLCRQDifferentialIAQ drives LCRQ and the Figure-2 queue with the same
// sequential op stream; they must agree exactly.
func TestLCRQDifferentialIAQ(t *testing.T) {
	f := func(ops []byte) bool {
		lq := newSmallLCRQ(2)
		lh := lq.NewHandle()
		defer lh.Release()
		iq := NewIAQ(4096)
		ih := NewHandle()
		next := uint64(1)
		for _, op := range ops {
			if op%2 == 0 {
				if !iq.Enqueue(ih, next) {
					break // IAQ capacity exhausted; stop comparing
				}
				lq.Enqueue(lh, next)
				next++
			} else {
				lv, lok := lq.Dequeue(lh)
				iv, iok := iq.Dequeue(ih)
				if lok != iok || (lok && lv != iv) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func lcrqStress(t *testing.T, cfg Config, producers, consumers, perProd int) {
	t.Helper()
	q := NewLCRQ(cfg)
	var wg, prodWG sync.WaitGroup
	prodWG.Add(producers)
	seen := make([][]uint64, consumers)
	var dequeued atomic.Int64
	total := int64(producers * perProd)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			defer prodWG.Done()
			h := q.NewHandle()
			defer h.Release()
			h.Cluster = int64(p % 2)
			for i := 0; i < perProd; i++ {
				q.Enqueue(h, uint64(p)<<32|uint64(i)|1<<63)
			}
		}(p)
	}
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			h := q.NewHandle()
			defer h.Release()
			h.Cluster = int64(c % 2)
			for dequeued.Load() < total {
				if v, ok := q.Dequeue(h); ok {
					seen[c] = append(seen[c], v&^(1<<63))
					dequeued.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	got := map[uint64]int{}
	n := 0
	for _, s := range seen {
		for _, v := range s {
			got[v]++
			n++
		}
	}
	if int64(n) != total {
		t.Fatalf("dequeued %d, want %d", n, total)
	}
	for v, k := range got {
		if k != 1 {
			t.Fatalf("value %#x dequeued %d times", v, k)
		}
	}
	for c, s := range seen {
		last := map[uint64]int64{}
		for _, v := range s {
			p, i := v>>32, int64(v&0xffffffff)
			if prev, ok := last[p]; ok && i <= prev {
				t.Fatalf("consumer %d: producer %d out of order (%d after %d)", c, p, i, prev)
			}
			last[p] = i
		}
	}
}

func TestLCRQConcurrentTinyRing(t *testing.T) {
	lcrqStress(t, Config{RingOrder: 2, NoPadding: true}, 4, 4, 3000)
}

func TestLCRQConcurrentBigRing(t *testing.T) {
	lcrqStress(t, Config{RingOrder: 12, NoPadding: true}, 4, 4, 5000)
}

func TestLCRQConcurrentCASVariant(t *testing.T) {
	lcrqStress(t, Config{RingOrder: 6, NoPadding: true, CASLoopFAA: true}, 3, 3, 2000)
}

func TestLCRQConcurrentHierarchical(t *testing.T) {
	lcrqStress(t, Config{
		RingOrder:      4,
		NoPadding:      true,
		Hierarchical:   true,
		ClusterTimeout: 50 * time.Microsecond,
	}, 4, 4, 1500)
}

func TestLCRQConcurrentNoRecycle(t *testing.T) {
	lcrqStress(t, Config{RingOrder: 3, NoPadding: true, NoRecycle: true}, 4, 4, 2000)
}

func TestLCRQConcurrentNoSpinWait(t *testing.T) {
	lcrqStress(t, Config{RingOrder: 4, NoPadding: true, SpinWait: -1}, 4, 4, 2000)
}

func TestLCRQConcurrentNoHazard(t *testing.T) {
	lcrqStress(t, Config{RingOrder: 2, NoPadding: true, Reclamation: ReclaimGC}, 4, 4, 2000)
}

func TestLCRQConcurrentEpoch(t *testing.T) {
	lcrqStress(t, Config{RingOrder: 2, NoPadding: true, Reclamation: ReclaimEpoch}, 4, 4, 2000)
}

func TestLCRQEpochRecycles(t *testing.T) {
	q := NewLCRQ(Config{RingOrder: 1, NoPadding: true, Reclamation: ReclaimEpoch})
	h := q.NewHandle()
	defer h.Release()
	next, expect := uint64(1), uint64(1)
	for i := 0; i < 2000; i++ {
		for j := 0; j < 5; j++ {
			q.Enqueue(h, next)
			next++
		}
		for j := 0; j < 5; j++ {
			v, ok := q.Dequeue(h)
			if !ok || v != expect {
				t.Fatalf("batch %d: got (%d,%v), want %d", i, v, ok, expect)
			}
			expect++
		}
	}
	if h.C.RingAppends == 0 {
		t.Fatal("workload never appended a ring")
	}
	if h.C.RingRecycles == 0 {
		t.Fatal("epoch mode never recycled a ring")
	}
}

func TestReclamationModeNormalization(t *testing.T) {
	if !(Config{Reclamation: ReclaimGC}).normalized().NoRecycle {
		t.Fatal("ReclaimGC did not imply NoRecycle")
	}
	if ReclaimHazard.String() != "hazard" || ReclaimEpoch.String() != "epoch" || ReclaimGC.String() != "gc" {
		t.Fatal("mode names wrong")
	}
}

func TestNoHazardImpliesNoRecycle(t *testing.T) {
	q := NewLCRQ(Config{RingOrder: 1, Reclamation: ReclaimGC})
	if !q.Config().NoRecycle {
		t.Fatal("GC-only reclamation must imply NoRecycle")
	}
	h := q.NewHandle()
	defer h.Release()
	// Churn rings; nothing may be recycled and nothing may crash.
	for i := uint64(1); i <= 500; i++ {
		for j := uint64(0); j < 5; j++ {
			q.Enqueue(h, i*10+j+1)
		}
		for j := uint64(0); j < 5; j++ {
			if _, ok := q.Dequeue(h); !ok {
				t.Fatal("lost value")
			}
		}
	}
	if h.C.RingRecycles != 0 {
		t.Fatal("GC-only queue recycled a ring")
	}
	if h.C.RingAppends == 0 {
		t.Fatal("workload should have appended rings")
	}
}

// TestRingRecyclesCountedOnPublish races enqueuers onto tiny rings so that
// appenders lose the publication CAS. A recycled ring that loses goes back
// to the pool and may be handed out again; it must be counted once, when it
// is published, so the aggregated RingRecycles stays within RingAppends and matches
// the EvRingRecycle taps one for one.
func TestRingRecyclesCountedOnPublish(t *testing.T) {
	const workers, rounds, burst = 8, 2000, 4
	tap := &tapCount{}
	q := NewLCRQ(Config{RingOrder: 1, Tap: tap})
	var mu sync.Mutex
	var recycled, appends uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := q.NewHandle()
			defer h.Release()
			for i := 0; i < rounds; i++ {
				for j := 0; j < burst; j++ {
					q.Enqueue(h, uint64(i*burst+j)+1)
				}
				for j := 0; j < burst; j++ {
					q.Dequeue(h)
				}
			}
			mu.Lock()
			recycled += h.C.RingRecycles
			appends += h.C.RingAppends
			mu.Unlock()
		}()
	}
	wg.Wait()
	if recycled == 0 {
		t.Fatal("workload never recycled a ring")
	}
	if recycled > appends {
		t.Fatalf("RingRecycles = %d exceeds RingAppends = %d", recycled, appends)
	}
	if taps := tap.counts[EvRingRecycle].Load(); recycled != taps {
		t.Fatalf("RingRecycles = %d, EvRingRecycle taps = %d", recycled, taps)
	}
}

// TestLCRQEnqueueDequeuePairs mimics the paper's benchmark loop shape.
func TestLCRQEnqueueDequeuePairs(t *testing.T) {
	q := newSmallLCRQ(6)
	var wg sync.WaitGroup
	workers := 8
	var balance atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := q.NewHandle()
			defer h.Release()
			for i := 0; i < 3000; i++ {
				q.Enqueue(h, uint64(w*1_000_000+i)+1)
				balance.Add(1)
				if _, ok := q.Dequeue(h); ok {
					balance.Add(-1)
				}
			}
		}(w)
	}
	wg.Wait()
	// Whatever remains in the queue must equal the enqueue/dequeue balance.
	h := q.NewHandle()
	defer h.Release()
	rest := int64(0)
	for {
		if _, ok := q.Dequeue(h); !ok {
			break
		}
		rest++
	}
	if rest != balance.Load() {
		t.Fatalf("queue had %d leftovers, balance says %d", rest, balance.Load())
	}
}

func TestLCRQRecyclingReusesRings(t *testing.T) {
	// R = 2 and batches of 5 force each batch to close rings and append new
	// ones; draining swings the head and retires the old rings, which the
	// recycler then hands back to later appends.
	q := NewLCRQ(Config{RingOrder: 1, NoPadding: true})
	h := q.NewHandle()
	defer h.Release()
	next, expect := uint64(1), uint64(1)
	for i := 0; i < 200; i++ {
		for j := 0; j < 5; j++ {
			q.Enqueue(h, next)
			next++
		}
		for j := 0; j < 5; j++ {
			v, ok := q.Dequeue(h)
			if !ok || v != expect {
				t.Fatalf("batch %d: got (%d,%v), want %d", i, v, ok, expect)
			}
			expect++
		}
	}
	if h.C.RingAppends == 0 {
		t.Fatal("workload never appended a ring")
	}
	if h.C.RingRecycles == 0 {
		t.Fatal("expected some rings to be recycled")
	}
}

func TestLCRQHandleRelease(t *testing.T) {
	q := newSmallLCRQ(3)
	h := q.NewHandle()
	q.Enqueue(h, 1)
	h.Release()
	h2 := q.NewHandle()
	defer h2.Release()
	if v, ok := q.Dequeue(h2); !ok || v != 1 {
		t.Fatalf("got (%d,%v)", v, ok)
	}
	// Releasing a detached handle must not panic.
	NewHandle().Release()
}

func TestLCRQConfigAccessor(t *testing.T) {
	q := NewLCRQ(Config{RingOrder: 7})
	if q.Config().RingOrder != 7 {
		t.Fatal("config not retained")
	}
	if q.Config().StarvationLimit != DefaultStarvationLimit {
		t.Fatal("config not normalized")
	}
}

// TestHandleJitterSeeded: every handle — issued by a queue under each
// reclamation scheme, or detached for standalone CRQ use — carries a
// working jitter source, since clusterGate and the public wait loops rely
// on it.
func TestHandleJitterSeeded(t *testing.T) {
	const d = 1000
	check := func(name string, h *Handle) {
		t.Helper()
		if j := h.Jitter(d); j < d/2 || j > 3*d/2 {
			t.Fatalf("%s handle: Jitter(%d) = %d out of range", name, d, j)
		}
	}
	for _, rc := range []Reclamation{ReclaimHazard, ReclaimEpoch, ReclaimGC} {
		q := NewLCRQ(Config{RingOrder: 4, Reclamation: rc})
		h := q.NewHandle()
		check(rc.String(), h)
		h.Release()
	}
	check("detached", NewHandle())
}
