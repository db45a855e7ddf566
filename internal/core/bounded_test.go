package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCapacityBound verifies the exact item account: the queue accepts
// exactly Capacity items, rejects the next with EnqFull, and frees budget
// one-for-one as items are dequeued.
func TestCapacityBound(t *testing.T) {
	const cap = 10
	q := NewLCRQ(Config{Capacity: cap})
	h := q.NewHandle()
	defer h.Release()
	for i := 0; i < cap; i++ {
		if st := q.EnqueueStatus(h, uint64(i)+1); st != EnqOK {
			t.Fatalf("enqueue %d: status %v, want EnqOK", i, st)
		}
	}
	if got := q.Items(); got != cap {
		t.Fatalf("Items() = %d, want %d", got, cap)
	}
	if st := q.EnqueueStatus(h, 99); st != EnqFull {
		t.Fatalf("enqueue past capacity: status %v, want EnqFull", st)
	}
	if q.CapacityRejects() == 0 {
		t.Fatal("CapacityRejects did not count the rejection")
	}
	if v, ok := q.Dequeue(h); !ok || v != 1 {
		t.Fatalf("dequeue = %d,%v, want 1,true (FIFO preserved across rejection)", v, ok)
	}
	if st := q.EnqueueStatus(h, 100); st != EnqOK {
		t.Fatalf("enqueue after freeing one slot: status %v, want EnqOK", st)
	}
	// Drain and confirm the rejected values never entered the sequence.
	want := []uint64{2, 3, 4, 5, 6, 7, 8, 9, 10, 100}
	for i, w := range want {
		v, ok := q.Dequeue(h)
		if !ok || v != w {
			t.Fatalf("drain[%d] = %d,%v, want %d,true", i, v, ok, w)
		}
	}
	if _, ok := q.Dequeue(h); ok {
		t.Fatal("queue should be empty")
	}
	if got := q.Items(); got != 0 {
		t.Fatalf("Items() after drain = %d, want 0", got)
	}
}

// TestMaxRingsBound verifies the ring budget with a wholly stalled
// consumer: the chain stops growing at MaxRings and every enqueue past it
// is turned away before allocating, in all reclamation modes.
func TestMaxRingsBound(t *testing.T) {
	for _, mode := range []Reclamation{ReclaimHazard, ReclaimEpoch, ReclaimGC} {
		t.Run(mode.String(), func(t *testing.T) {
			const maxRings = 3
			// R = 2: every third item needs a fresh ring, so the budget
			// binds almost immediately.
			q := NewLCRQ(Config{RingOrder: 1, MaxRings: maxRings, Reclamation: mode})
			h := q.NewHandle()
			defer h.Release()
			accepted := 0
			for i := 0; i < 1024; i++ {
				if q.Enqueue(h, uint64(i)+1) {
					accepted++
				}
				if lr := q.LiveRings(); lr > maxRings {
					t.Fatalf("LiveRings = %d exceeds budget %d", lr, maxRings)
				}
			}
			if accepted == 1024 {
				t.Fatal("ring budget never rejected an enqueue")
			}
			if accepted < maxRings {
				t.Fatalf("accepted only %d items across %d rings", accepted, maxRings)
			}
			// The budgeted queue must still drain in FIFO order.
			for i := 0; i < accepted; i++ {
				v, ok := q.Dequeue(h)
				if !ok || v != uint64(i)+1 {
					t.Fatalf("drain[%d] = %d,%v, want %d,true", i, v, ok, i+1)
				}
			}
		})
	}
}

// TestMaxRingsBoundConcurrent hammers a tiny ring budget from several
// producers while a consumer drains slowly, asserting the chain never
// exceeds the budget at any sampled instant. Run with -race this also
// exercises the budget gate's synchronization.
func TestMaxRingsBoundConcurrent(t *testing.T) {
	const (
		maxRings  = 4
		producers = 4
		opsEach   = 5000
	)
	q := NewLCRQ(Config{RingOrder: 1, MaxRings: maxRings})
	var pwg sync.WaitGroup
	var violations atomic.Int64
	stop := make(chan struct{})
	for p := 0; p < producers; p++ {
		pwg.Add(1)
		go func(p int) {
			defer pwg.Done()
			h := q.NewHandle()
			defer h.Release()
			for i := 0; i < opsEach; i++ {
				q.Enqueue(h, uint64(p)<<32|uint64(i)+1)
				if q.LiveRings() > maxRings {
					violations.Add(1)
				}
			}
		}(p)
	}
	// One deliberately slow consumer: the budget must hold regardless.
	var cwg sync.WaitGroup
	cwg.Add(1)
	go func() {
		defer cwg.Done()
		h := q.NewHandle()
		defer h.Release()
		for {
			select {
			case <-stop:
				return
			default:
			}
			q.Dequeue(h)
			runtime.Gosched()
		}
	}()
	// Sample the gauge from the outside as well while producers run.
	done := make(chan struct{})
	go func() { pwg.Wait(); close(done) }()
	for sampling := true; sampling; {
		select {
		case <-done:
			sampling = false
		default:
			if q.LiveRings() > maxRings {
				violations.Add(1)
			}
			time.Sleep(time.Millisecond)
		}
	}
	close(stop)
	cwg.Wait()
	if n := violations.Load(); n > 0 {
		t.Fatalf("ring budget violated %d times (LiveRings > %d)", n, maxRings)
	}
}

// TestCapacityBoundConcurrent verifies the firm in-flight bound under
// producer/consumer concurrency: the exact item account never exceeds
// Capacity at any sampled point, and per-producer FIFO order survives the
// reject/retry churn.
func TestCapacityBoundConcurrent(t *testing.T) {
	const (
		cap       = 64
		producers = 4
		perProd   = 3000
	)
	q := NewLCRQ(Config{RingOrder: 2, Capacity: cap})
	var wg sync.WaitGroup
	var violations atomic.Int64
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			h := q.NewHandle()
			defer h.Release()
			for i := 0; i < perProd; i++ {
				// Retry until accepted: models EnqueueWait's polling.
				for q.EnqueueStatus(h, uint64(p)<<32|uint64(i)+1) != EnqOK {
					if q.Items() > cap {
						violations.Add(1)
					}
					runtime.Gosched()
				}
				if q.Items() > cap {
					violations.Add(1)
				}
			}
		}(p)
	}
	got := make([][]uint64, producers)
	var cwg sync.WaitGroup
	cwg.Add(1)
	go func() {
		defer cwg.Done()
		h := q.NewHandle()
		defer h.Release()
		remaining := producers * perProd
		for remaining > 0 {
			v, ok := q.Dequeue(h)
			if !ok {
				runtime.Gosched()
				continue
			}
			got[v>>32] = append(got[v>>32], v&0xffffffff)
			remaining--
		}
	}()
	wg.Wait()
	cwg.Wait()
	if n := violations.Load(); n > 0 {
		t.Fatalf("item account exceeded capacity %d times", n)
	}
	for p := 0; p < producers; p++ {
		if len(got[p]) != perProd {
			t.Fatalf("producer %d: %d items consumed, want %d", p, len(got[p]), perProd)
		}
		for i, v := range got[p] {
			if v != uint64(i)+1 {
				t.Fatalf("producer %d: FIFO broken at %d: got %d, want %d", p, i, v, i+1)
			}
		}
	}
}

// TestBoundedNormalization pins the Config bookkeeping: derived ring
// budgets, the MinMaxRings floor, and Bounded().
func TestBoundedNormalization(t *testing.T) {
	cfg := Config{RingOrder: 4, Capacity: 100}.normalized()
	// ⌈100/16⌉+1 = 8.
	if cfg.MaxRings != 8 {
		t.Fatalf("derived MaxRings = %d, want 8", cfg.MaxRings)
	}
	if got := (Config{MaxRings: 1}).normalized().MaxRings; got != MinMaxRings {
		t.Fatalf("MaxRings floor = %d, want %d", got, MinMaxRings)
	}
	if (Config{}).Bounded() {
		t.Fatal("zero Config must be unbounded")
	}
	if !(Config{Capacity: 1}).Bounded() || !(Config{MaxRings: 5}).Bounded() {
		t.Fatal("Capacity/MaxRings must make the Config bounded")
	}
}

// TestDetachedHandleRejected verifies the fail-fast guard: a detached
// core.NewHandle() — legitimate for standalone CRQ use — must not silently
// run unprotected operations on a hazard- or epoch-mode LCRQ.
func TestDetachedHandleRejected(t *testing.T) {
	for _, mode := range []Reclamation{ReclaimHazard, ReclaimEpoch} {
		t.Run(mode.String(), func(t *testing.T) {
			q := NewLCRQ(Config{Reclamation: mode})
			h := NewHandle()
			defer func() {
				if recover() == nil {
					t.Fatal("detached handle on a reclaiming LCRQ did not panic")
				}
			}()
			q.Enqueue(h, 1)
		})
	}
	// GC mode has no reclamation record to forget, so detached handles are
	// legitimate there.
	t.Run("gc", func(t *testing.T) {
		q := NewLCRQ(Config{Reclamation: ReclaimGC})
		h := NewHandle()
		if !q.Enqueue(h, 1) {
			t.Fatal("detached handle must work on a GC-mode LCRQ")
		}
		if v, ok := q.Dequeue(h); !ok || v != 1 {
			t.Fatalf("dequeue = %d,%v, want 1,true", v, ok)
		}
	})
}

// TestOrphanHandleRecovery verifies the leak finalizer: a handle dropped
// without Release has its reclamation record returned to the domain, so the
// domain's record (and in epoch mode, reclamation progress) is not lost
// forever.
func TestOrphanHandleRecovery(t *testing.T) {
	for _, mode := range []Reclamation{ReclaimHazard, ReclaimEpoch} {
		t.Run(mode.String(), func(t *testing.T) {
			q := NewLCRQ(Config{Reclamation: mode})
			func() {
				h := q.NewHandle()
				q.Enqueue(h, 1)
				q.Dequeue(h)
				// h leaks: no Release.
			}()
			deadline := time.Now().Add(5 * time.Second)
			for q.OrphanRecoveries() == 0 {
				if time.Now().After(deadline) {
					t.Fatal("orphaned handle was never recovered by the finalizer")
				}
				runtime.GC()
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestReleaseDisarmsRecovery verifies the orderly path: a properly Released
// handle must not be double-counted by the orphan finalizer.
func TestReleaseDisarmsRecovery(t *testing.T) {
	q := NewLCRQ(Config{})
	func() {
		h := q.NewHandle()
		q.Enqueue(h, 1)
		h.Release()
	}()
	for i := 0; i < 5; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if n := q.OrphanRecoveries(); n != 0 {
		t.Fatalf("released handle was recovered as an orphan (%d recoveries)", n)
	}
}
