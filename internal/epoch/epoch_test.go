package epoch

import (
	"sync"
	"sync/atomic"
	"testing"
)

type node struct{ v int }

func TestAcquireReuse(t *testing.T) {
	d := New[node]()
	r1 := d.Acquire()
	r2 := d.Acquire()
	if r1 == r2 {
		t.Fatal("live records aliased")
	}
	r1.Release()
	if r3 := d.Acquire(); r3 != r1 {
		t.Fatal("released record not reused")
	}
}

func TestRetireNilNoop(t *testing.T) {
	d := New[node]()
	r := d.Acquire()
	r.Retire(nil, func(*node) { t.Fatal("reclaimed nil") })
	r.Flush()
}

func TestQuiescentReclamation(t *testing.T) {
	d := New[node]()
	r := d.Acquire()
	var freed []int
	// Retire nodes across several pin/unpin cycles; with a single
	// participant the epoch advances freely, so after enough cycles the
	// early generations must have been reclaimed.
	for i := 0; i < 5*advanceInterval; i++ {
		r.Pin()
		r.Retire(&node{v: i}, func(n *node) { freed = append(freed, n.v) })
		r.Unpin()
	}
	if len(freed) == 0 {
		t.Fatal("nothing reclaimed after many epochs")
	}
	// Everything reclaimed must predate the most recent generations.
	seen := map[int]bool{}
	for _, v := range freed {
		if seen[v] {
			t.Fatalf("node %d reclaimed twice", v)
		}
		seen[v] = true
	}
}

func TestPinnedBlocksAdvance(t *testing.T) {
	d := New[node]()
	pinner := d.Acquire()
	worker := d.Acquire()

	pinner.Pin() // stalls in the current epoch
	e0 := d.Stats()
	var freed atomic.Int64
	worker.Pin()
	worker.Retire(&node{}, func(*node) { freed.Add(1) })
	worker.Unpin()
	for i := 0; i < 10*advanceInterval; i++ {
		worker.Pin()
		worker.Unpin()
	}
	// The stalled pinner holds the epoch back: at most one advance can
	// happen (participants observed e0 before the pin), so the retired
	// node — needing two advances — must not be freed.
	if got := d.Stats(); got > e0+1 {
		t.Fatalf("epoch advanced from %d to %d despite a pinned thread", e0, got)
	}
	if freed.Load() != 0 {
		t.Fatal("node reclaimed while a thread from its epoch is still pinned")
	}
	pinner.Unpin()
	for i := 0; i < 10*advanceInterval; i++ {
		worker.Pin()
		worker.Unpin()
	}
	if freed.Load() != 1 {
		t.Fatalf("node not reclaimed after quiescence (freed=%d)", freed.Load())
	}
}

func TestFlush(t *testing.T) {
	d := New[node]()
	r := d.Acquire()
	count := 0
	r.Pin()
	for i := 0; i < 10; i++ {
		r.Retire(&node{}, func(*node) { count++ })
	}
	r.Unpin()
	r.Flush()
	if count != 10 {
		t.Fatalf("Flush reclaimed %d, want 10", count)
	}
	r.Flush() // idempotent
	if count != 10 {
		t.Fatal("double reclamation")
	}
}

// TestConcurrentSafety: readers traverse a shared pointer while writers
// swap and retire old nodes; a reclaimed-while-visible node would be
// detected via the poisoned flag.
func TestConcurrentSafety(t *testing.T) {
	d := New[node]()
	type guarded struct {
		n        *node
		poisoned *atomic.Bool
	}
	var cur atomic.Pointer[guarded]
	mk := func(v int) *guarded {
		return &guarded{n: &node{v: v}, poisoned: &atomic.Bool{}}
	}
	cur.Store(mk(0))

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan string, 4)

	// Writers: replace and retire.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := d.Acquire()
			defer r.Release()
			for i := 1; i < 3000; i++ {
				r.Pin()
				old := cur.Swap(mk(i))
				r.Retire(old.n, func(*node) { old.poisoned.Store(true) })
				r.Unpin()
			}
		}(w)
	}
	// Readers: pin, read, validate.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := d.Acquire()
			defer r.Release()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r.Pin()
				gd := cur.Load()
				if gd.poisoned.Load() {
					select {
					case errs <- "read a reclaimed node":
					default:
					}
					r.Unpin()
					return
				}
				_ = gd.n.v
				r.Unpin()
			}
		}()
	}
	// Let writers finish, then stop readers.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	// Writers terminate on their own; signal readers once they do... the
	// WaitGroup covers all four, so use a simple scheme: close stop when
	// the writers' share of work is done by polling the swap counter.
	go func() {
		for cur.Load().n.v < 2999 {
		}
		close(stop)
	}()
	<-done
	select {
	case e := <-errs:
		t.Fatal(e)
	default:
	}
}

// mustPanic runs f and fails the test unless it panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

// TestBracketDisciplinePanics pins the guard rails on the pin/unpin/release
// protocol: each violation would silently void the grace-period proof, so
// each must fail fast instead.
func TestBracketDisciplinePanics(t *testing.T) {
	d := New[node]()

	r := d.Acquire()
	r.Pin()
	mustPanic(t, "Release of a pinned record", func() { r.Release() })
	mustPanic(t, "nested Pin", func() { r.Pin() })
	r.Unpin()
	mustPanic(t, "double Unpin", func() { r.Unpin() })

	// After the violations the record is unpinned and releasable; the
	// orderly protocol still works.
	r.Pin()
	r.Unpin()
	r.Release()
	if got := d.Acquire(); got != r {
		t.Fatal("record not reusable after orderly release")
	}
}
