package msqueue

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// iface lets both queues share the test bodies.
type iface interface {
	Enqueue(h *Handle, v uint64)
	Dequeue(h *Handle) (uint64, bool)
}

func queues() map[string]func() iface {
	return map[string]func() iface{
		"ms":      func() iface { return New() },
		"twolock": func() iface { return NewTwoLock() },
	}
}

func TestSequentialFIFO(t *testing.T) {
	for name, mk := range queues() {
		t.Run(name, func(t *testing.T) {
			q := mk()
			h := &Handle{}
			if _, ok := q.Dequeue(h); ok {
				t.Fatal("fresh queue not empty")
			}
			for i := uint64(0); i < 200; i++ {
				q.Enqueue(h, i)
			}
			for i := uint64(0); i < 200; i++ {
				v, ok := q.Dequeue(h)
				if !ok || v != i {
					t.Fatalf("got (%d,%v), want %d", v, ok, i)
				}
			}
			if _, ok := q.Dequeue(h); ok {
				t.Fatal("queue should be empty")
			}
		})
	}
}

func TestModelEquivalence(t *testing.T) {
	for name, mk := range queues() {
		t.Run(name, func(t *testing.T) {
			f := func(ops []byte) bool {
				q := mk()
				h := &Handle{}
				var model []uint64
				next := uint64(1)
				for _, op := range ops {
					if op%2 == 0 {
						q.Enqueue(h, next)
						model = append(model, next)
						next++
					} else {
						v, ok := q.Dequeue(h)
						if len(model) == 0 {
							if ok {
								return false
							}
						} else if !ok || v != model[0] {
							return false
						} else {
							model = model[1:]
						}
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestConcurrentNoLossNoDup(t *testing.T) {
	for name, mk := range queues() {
		t.Run(name, func(t *testing.T) {
			q := mk()
			const producers, consumers, per = 4, 4, 3000
			var wg sync.WaitGroup
			var count atomic.Int64
			seen := make([][]uint64, consumers)
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					h := &Handle{}
					for i := 0; i < per; i++ {
						q.Enqueue(h, uint64(p)<<32|uint64(i))
					}
				}(p)
			}
			for c := 0; c < consumers; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					h := &Handle{}
					for count.Load() < producers*per {
						if v, ok := q.Dequeue(h); ok {
							seen[c] = append(seen[c], v)
							count.Add(1)
						}
					}
				}(c)
			}
			wg.Wait()
			all := map[uint64]int{}
			for _, s := range seen {
				for _, v := range s {
					all[v]++
				}
			}
			if len(all) != producers*per {
				t.Fatalf("got %d distinct, want %d", len(all), producers*per)
			}
			for v, n := range all {
				if n != 1 {
					t.Fatalf("value %#x seen %d times", v, n)
				}
			}
			for c, s := range seen {
				last := map[uint64]int64{}
				for _, v := range s {
					p, i := v>>32, int64(v&0xffffffff)
					if prev, ok := last[p]; ok && i <= prev {
						t.Fatalf("consumer %d: producer %d out of order", c, p)
					}
					last[p] = i
				}
			}
		})
	}
}

func TestMSCountersTrackCASFailures(t *testing.T) {
	q := New()
	const workers = 8
	var wg sync.WaitGroup
	handles := make([]*Handle, workers)
	for w := 0; w < workers; w++ {
		handles[w] = &Handle{}
		wg.Add(1)
		go func(h *Handle) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				q.Enqueue(h, uint64(i))
				q.Dequeue(h)
			}
		}(handles[w])
	}
	wg.Wait()
	var cas, ops uint64
	for _, h := range handles {
		cas += h.C.CASAttempts
		ops += h.C.Ops()
	}
	if ops != workers*4000 {
		t.Fatalf("ops = %d", ops)
	}
	if cas < ops {
		t.Fatalf("MS queue must issue at least one CAS per op (cas=%d ops=%d)", cas, ops)
	}
}

func TestTwoLockLockCounter(t *testing.T) {
	q := NewTwoLock()
	h := &Handle{}
	q.Enqueue(h, 1)
	q.Dequeue(h)
	if h.C.LockAcquisitions != 2 {
		t.Fatalf("LockAcquisitions = %d, want 2", h.C.LockAcquisitions)
	}
}
