package ccsynch

import (
	"sync"
	"testing"
)

// TestSerializedCounter verifies mutual exclusion of the applied operation:
// a plain (non-atomic) counter incremented through CC-Synch must not lose
// updates.
func TestSerializedCounter(t *testing.T) {
	var counter uint64 // deliberately plain
	s := New(func(arg uint64) (uint64, bool) {
		counter += arg
		return counter, true
	}, 0)
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := NewHandle()
			for i := 0; i < per; i++ {
				s.Apply(h, 1)
			}
		}()
	}
	wg.Wait()
	if counter != workers*per {
		t.Fatalf("counter = %d, want %d", counter, workers*per)
	}
}

// TestResponsesRouted checks each thread receives the response to its own
// request, not a neighbour's.
func TestResponsesRouted(t *testing.T) {
	s := New(func(arg uint64) (uint64, bool) {
		return arg * 2, true
	}, 0)
	const workers, per = 8, 3000
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := NewHandle()
			for i := 0; i < per; i++ {
				arg := uint64(w*per + i)
				ret, ok := s.Apply(h, arg)
				if !ok || ret != arg*2 {
					select {
					case errs <- "wrong response":
					default:
					}
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case e := <-errs:
		t.Fatal(e)
	default:
	}
}

// TestSequentialOrderPreserved: with a single thread the construction must
// behave like direct calls.
func TestSequentialOrderPreserved(t *testing.T) {
	var log []uint64
	s := New(func(arg uint64) (uint64, bool) {
		log = append(log, arg)
		return uint64(len(log)), true
	}, 0)
	h := NewHandle()
	for i := uint64(0); i < 100; i++ {
		ret, ok := s.Apply(h, i)
		if !ok || ret != i+1 {
			t.Fatalf("Apply(%d) = (%d,%v)", i, ret, ok)
		}
	}
	for i, v := range log {
		if v != uint64(i) {
			t.Fatalf("log[%d] = %d", i, v)
		}
	}
}

func TestCombinerStatsAccumulate(t *testing.T) {
	s := New(func(arg uint64) (uint64, bool) { return 0, true }, 0)
	const workers, per = 6, 2000
	var wg sync.WaitGroup
	handles := make([]*Handle, workers)
	for w := 0; w < workers; w++ {
		handles[w] = NewHandle()
		wg.Add(1)
		go func(h *Handle) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s.Apply(h, 0)
			}
		}(handles[w])
	}
	wg.Wait()
	var swaps, combined uint64
	for _, h := range handles {
		swaps += h.C.Swaps
		combined += h.C.Combined
	}
	if swaps != workers*per {
		t.Fatalf("Swaps = %d, want one per Apply (%d)", swaps, workers*per)
	}
	if combined != workers*per {
		t.Fatalf("Combined = %d, want every request applied exactly once (%d)",
			combined, workers*per)
	}
}

// TestBoundHandsOffCombining: with bound=1 every combiner applies at most
// one request, forcing frequent role handoffs; everything must still
// complete.
func TestBoundHandsOffCombining(t *testing.T) {
	var counter uint64
	s := New(func(arg uint64) (uint64, bool) {
		counter++
		return counter, true
	}, 1)
	const workers, per = 4, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := NewHandle()
			for i := 0; i < per; i++ {
				s.Apply(h, 0)
			}
		}()
	}
	wg.Wait()
	if counter != workers*per {
		t.Fatalf("counter = %d, want %d", counter, workers*per)
	}
}

func TestHSynchSerializesAcrossClusters(t *testing.T) {
	var counter uint64 // plain; cross-cluster mutual exclusion required
	hs := NewH(func(arg uint64) (uint64, bool) {
		counter += arg
		return counter, true
	}, 4, 0)
	const workers, per = 8, 3000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := NewHandle()
			for i := 0; i < per; i++ {
				hs.Apply(h, w%4, 1)
			}
		}(w)
	}
	wg.Wait()
	if counter != workers*per {
		t.Fatalf("counter = %d, want %d", counter, workers*per)
	}
}

func TestHSynchClusterFolding(t *testing.T) {
	hs := NewH(func(arg uint64) (uint64, bool) { return arg, true }, 2, 0)
	h := NewHandle()
	// Out-of-range and negative clusters must not panic.
	for _, cl := range []int{-3, -1, 0, 1, 5, 100} {
		if ret, ok := hs.Apply(h, cl, 9); !ok || ret != 9 {
			t.Fatalf("cluster %d: (%d,%v)", cl, ret, ok)
		}
	}
}

func TestNewHClampsClusters(t *testing.T) {
	hs := NewH(func(uint64) (uint64, bool) { return 0, true }, 0, 0)
	if len(hs.instances) != 1 {
		t.Fatalf("instances = %d, want 1", len(hs.instances))
	}
}

// TestHandleAcrossInstances: one handle used with two instances must keep
// their spare nodes separate.
func TestHandleAcrossInstances(t *testing.T) {
	var a, b uint64
	sa := New(func(uint64) (uint64, bool) { a++; return a, true }, 0)
	sb := New(func(uint64) (uint64, bool) { b++; return b, true }, 0)
	h := NewHandle()
	for i := 0; i < 1000; i++ {
		if ret, _ := sa.Apply(h, 0); ret != uint64(i+1) {
			t.Fatalf("sa ret = %d at %d", ret, i)
		}
		if ret, _ := sb.Apply(h, 0); ret != uint64(i+1) {
			t.Fatalf("sb ret = %d at %d", ret, i)
		}
	}
}
