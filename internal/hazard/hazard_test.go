package hazard

import (
	"sync"
	"sync/atomic"
	"testing"
)

type node struct {
	v    int
	next atomic.Pointer[node]
}

func TestAcquireReuse(t *testing.T) {
	d := New[node](2)
	r1 := d.Acquire()
	r2 := d.Acquire()
	if r1 == r2 {
		t.Fatal("two live acquires returned the same record")
	}
	if d.Stats() != 2 {
		t.Fatalf("records = %d, want 2", d.Stats())
	}
	r1.Release()
	r3 := d.Acquire()
	if r3 != r1 {
		t.Fatal("released record was not reused")
	}
	if d.Stats() != 2 {
		t.Fatalf("records = %d after reuse, want 2", d.Stats())
	}
}

func TestNewPanicsOnBadSlots(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New[node](0)
}

func TestRetireReclaimsUnprotected(t *testing.T) {
	d := New[node](1)
	r := d.Acquire()
	var reclaimed []*node
	n := &node{v: 1}
	r.Retire(n, func(p *node) { reclaimed = append(reclaimed, p) })
	r.scan()
	if len(reclaimed) != 1 || reclaimed[0] != n {
		t.Fatalf("reclaimed = %v", reclaimed)
	}
}

func TestRetireNilIsNoop(t *testing.T) {
	d := New[node](1)
	r := d.Acquire()
	r.Retire(nil, func(*node) { t.Fatal("reclaimed nil") })
	r.scan()
}

func TestProtectBlocksReclamation(t *testing.T) {
	d := New[node](1)
	owner := d.Acquire()
	other := d.Acquire()

	n := &node{v: 7}
	other.Protect(0, n)

	var reclaimed int
	owner.Retire(n, func(*node) { reclaimed++ })
	owner.scan()
	if reclaimed != 0 {
		t.Fatal("protected node was reclaimed")
	}
	other.Clear(0)
	owner.scan()
	if reclaimed != 1 {
		t.Fatalf("reclaimed = %d after clearing, want 1", reclaimed)
	}
}

func TestReleaseScansOutstanding(t *testing.T) {
	d := New[node](1)
	r := d.Acquire()
	var reclaimed int
	r.Retire(&node{}, func(*node) { reclaimed++ })
	r.Release()
	if reclaimed != 1 {
		t.Fatal("Release did not scan retired nodes")
	}
}

func TestProtectPtrValidates(t *testing.T) {
	d := New[node](1)
	r := d.Acquire()
	var src atomic.Pointer[node]
	n := &node{v: 3}
	src.Store(n)
	got := r.ProtectPtr(0, &src)
	if got != n {
		t.Fatalf("ProtectPtr = %v", got)
	}
	if r.hps[0].Load() != n {
		t.Fatal("hazard slot not published")
	}
}

func TestScanThresholdScalesWithRecords(t *testing.T) {
	d := New[node](1)
	r := d.Acquire()
	var reclaimed atomic.Int64
	// Below threshold (8 × 1 record), nothing is scanned automatically.
	for i := 0; i < 7; i++ {
		r.Retire(&node{v: i}, func(*node) { reclaimed.Add(1) })
	}
	if reclaimed.Load() != 0 {
		t.Fatalf("premature reclamation of %d nodes", reclaimed.Load())
	}
	// Crossing the threshold triggers a scan of everything.
	r.Retire(&node{v: 8}, func(*node) { reclaimed.Add(1) })
	if reclaimed.Load() != 8 {
		t.Fatalf("reclaimed = %d at threshold, want 8", reclaimed.Load())
	}
}

// TestSetScanThresholdBoundsRetired checks the bound the scan threshold sets:
// with k = DefaultScanThreshold and n records, a record's retired list never
// holds more than k×n entries, and a second record doubles the bound.
func TestSetScanThresholdBoundsRetired(t *testing.T) {
	d := New[node](1)
	r1 := d.Acquire()
	r2 := d.Acquire() // second record doubles the scaled bound
	defer r2.Release()
	bound := DefaultScanThreshold * int(d.Stats())
	if bound != 2*DefaultScanThreshold {
		t.Fatalf("bound = %d with 2 records, want %d", bound, 2*DefaultScanThreshold)
	}
	for i := 0; i < 100; i++ {
		r1.Retire(&node{v: i}, nil)
		if got := len(r1.retired); got > bound {
			t.Fatalf("retired list grew to %d, bound %d", got, bound)
		}
	}
}

// TestConcurrentListTraversal exercises the classic hazard-pointer usage: a
// shared stack whose nodes are popped, retired, and recycled while readers
// traverse. The assertion is that no node is ever reclaimed while a reader
// holds it (checked via a poisoned flag).
func TestConcurrentListTraversal(t *testing.T) {
	d := New[node](1)
	var head atomic.Pointer[node]
	const nodes = 200
	for i := 0; i < nodes; i++ {
		n := &node{v: i}
		n.next.Store(head.Load())
		head.Store(n)
	}
	poisoned := make(map[*node]*atomic.Bool)
	var mu sync.Mutex
	markPoisoned := func(p *node) {
		mu.Lock()
		defer mu.Unlock()
		poisoned[p].Store(true)
	}
	mu.Lock()
	for n := head.Load(); n != nil; n = n.next.Load() {
		var b atomic.Bool
		poisoned[n] = &b
	}
	mu.Unlock()

	var wg sync.WaitGroup
	// Poppers: detach head, retire it.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := d.Acquire()
			defer r.Release()
			for {
				n := r.ProtectPtr(0, &head)
				if n == nil {
					return
				}
				next := n.next.Load()
				if head.CompareAndSwap(n, next) {
					r.Retire(n, markPoisoned)
				}
				r.Clear(0)
			}
		}()
	}
	// Readers: protect head and verify it is not poisoned while held.
	errs := make(chan string, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := d.Acquire()
			defer r.Release()
			for i := 0; i < 5000; i++ {
				n := r.ProtectPtr(0, &head)
				if n == nil {
					return
				}
				mu.Lock()
				p := poisoned[n]
				mu.Unlock()
				if p.Load() {
					select {
					case errs <- "read a reclaimed node":
					default:
					}
					return
				}
				r.Clear(0)
			}
		}()
	}
	wg.Wait()
	select {
	case e := <-errs:
		t.Fatal(e)
	default:
	}
}
