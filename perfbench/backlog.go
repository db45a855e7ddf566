package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"lcrq"
	"lcrq/internal/xrand"
)

// item is the backlog payload: Typed carries pointers to it.
type item struct{ v uint64 }

// backlogEnv holds a Typed queue at depth: each cycle the load goroutines
// enqueue o.fill items between them, then dequeue until the queue is
// empty. The item structs are allocated by the first run, outside set-up,
// and reused every cycle, so the queue's own allocations are the only ones
// in the loop.
type backlogEnv struct {
	q      *lcrq.Typed[*item]
	hs     [loaders]*lcrq.TypedHandle[*item]
	pool   [loaders][]item // each producer's items
	logs   []*consumerLog
	base   []uint64
	sent   [loaders]uint64
	fill   int
	cycles int
	err    error // first cycle that did not drain exactly its fill
	peak   int64 // most rings seen linked while tracing
	layout *xrand.State
	pad    []*[2]uint64
}

func setupBacklog(o options) (env, error) {
	e := &backlogEnv{base: streamBases(o.seed), fill: o.fill, layout: xrand.New(o.seed ^ 0x5eed0003)}
	for range loaders {
		e.logs = append(e.logs, newConsumerLog(e.base))
	}
	e.open()
	return e, nil
}

// open builds a fresh queue with fresh handles. Before it, a seeded number
// of 16-byte objects is allocated and kept until the next open: the
// allocator would otherwise put the new handles' hazard slots where the
// last queue's were, so a whole run would share one or two placements and
// runs would differ by which they drew. With the padding every part draws
// its own.
func (e *backlogEnv) open() {
	e.pad = e.pad[:0]
	for range e.layout.Uintn(8) {
		e.pad = append(e.pad, new([2]uint64))
	}
	e.q = lcrq.NewTyped[*item]()
	for g := range e.hs {
		e.hs[g] = e.q.NewHandle()
	}
}

func (e *backlogEnv) release() {
	for _, h := range e.hs {
		h.Release()
	}
	e.q.Close()
	e.q = nil
}

// run repeats parts until d has passed; there is always at least one.
// Each part after the first builds a fresh queue with fresh handles, so a
// run averages over where the allocator put the handles' hazard slots (see
// pairsEnv). A part runs one untimed cycle, which allocates the queue's
// rings, then the measured cycle, which recycles them as a long-lived
// queue does.
func (e *backlogEnv) run(d time.Duration, tr *tracer) []part {
	if e.pool[0] == nil {
		for g := range e.pool {
			e.pool[g] = make([]item, e.fill/loaders)
		}
	}
	var ps []part
	start := time.Now()
	for {
		if e.cycles > 0 {
			e.release()
			runtime.GC() // drop the old queue's rings before the new one allocates its own
			e.open()
		}
		warm := e.cycle(nil)
		p := e.cycle(tr)
		p.untimed = warm.items
		p.attempted += warm.attempted
		p.failed += warm.failed
		ps = append(ps, p)
		if time.Since(start) >= d {
			return ps
		}
	}
}

// cycle fills the queue with e.fill items, then drains it.
func (e *backlogEnv) cycle(tr *tracer) part {
	var p part
	fills, fillWall := phase(func(g int) workerOut { return e.fillOne(g, tr) })
	if tr != nil {
		e.peak = max(e.peak, e.q.Metrics().LiveRings)
	}
	drains, drainWall := phase(func(g int) workerOut { return e.drainOne(g, tr) })
	var filled, drained uint64
	for g := range loaders {
		filled += fills[g].ops
		drained += drains[g].ops
		p.failed += fills[g].failed
		p.rttNs = append(p.rttNs, fills[g].rttNs...)
		p.rttNs = append(p.rttNs, drains[g].rttNs...)
	}
	if drained != filled {
		p.failed += max(filled, drained) - min(filled, drained)
		if e.err == nil {
			e.err = fmt.Errorf("backlog cycle %d drained %d of the %d items it filled", e.cycles, drained, filled)
		}
	}
	e.cycles++
	p.wall = fillWall + drainWall
	p.items = drained
	p.enqItems, p.enqTime = filled, fillWall
	p.deqItems, p.deqTime = drained, drainWall
	p.attempted = uint64(e.fill)
	return p
}

// phase runs work on every load goroutine at once and returns when all
// have finished.
func phase(work func(g int) workerOut) ([]workerOut, time.Duration) {
	outs := make([]workerOut, loaders)
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := range loaders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[g] = work(g)
		}()
	}
	wg.Wait()
	return outs, time.Since(t0)
}

func (e *backlogEnv) fillOne(g int, tr *tracer) workerOut {
	h, items := e.hs[g], e.pool[g]
	seq := e.base[g] + e.sent[g]
	var out workerOut
	spans := startBlockSpans(tr, spanFill)
	for i := 0; i < len(items); i += rttBlock {
		spans.begin()
		end := min(i+rttBlock, len(items))
		t0 := time.Now()
		for j := i; j < end; j++ {
			it := &items[j]
			it.v = value(g, seq)
			if h.Enqueue(it) {
				seq++
				out.ops++
			} else {
				out.failed++
			}
		}
		out.rttNs = append(out.rttNs, float64(time.Since(t0))/float64(end-i))
		spans.done()
	}
	spans.finish()
	e.sent[g] = seq - e.base[g]
	return out
}

// drainOne dequeues until the queue reports empty. Only whole blocks give
// round-trip samples: the last one ends on the empty dequeue.
func (e *backlogEnv) drainOne(g int, tr *tracer) workerOut {
	h, log := e.hs[g], e.logs[g]
	var out workerOut
	spans := startBlockSpans(tr, spanDrain)
	for {
		spans.begin()
		t0 := time.Now()
		n := 0
		for ; n < rttBlock; n++ {
			it, ok := h.Dequeue()
			if !ok {
				break
			}
			log.observe(it.v)
		}
		out.ops += uint64(n)
		spans.done()
		if n < rttBlock {
			break
		}
		out.rttNs = append(out.rttNs, float64(time.Since(t0))/rttBlock)
	}
	spans.finish()
	return out
}

func (e *backlogEnv) finish() error {
	if e.err != nil {
		return e.err
	}
	if it, ok := e.hs[0].Dequeue(); ok {
		return fmt.Errorf("backlog: queue still held %#x after the last drain", it.v)
	}
	return verify(e.sent[:], e.logs)
}

func (e *backlogEnv) liveRingsPeak() int64 { return e.peak }

func (e *backlogEnv) close() {
	e.release()
	e.pool = [loaders][]item{}
}

// stats replays two backlog cycles on the raw queue Typed builds its index
// queue from, because Typed exposes no operation counters.
func (e *backlogEnv) stats() lcrq.Stats {
	q := lcrq.New()
	var hs [loaders]*lcrq.Handle
	for g := range hs {
		hs[g] = q.NewHandle()
	}
	per := e.fill / loaders
	for range 2 {
		phase(func(g int) workerOut {
			for i := range per {
				hs[g].Enqueue(value(g, uint64(i)))
			}
			return workerOut{}
		})
		phase(func(g int) workerOut {
			for {
				if _, ok := hs[g].Dequeue(); !ok {
					return workerOut{}
				}
			}
		})
	}
	var st lcrq.Stats
	for _, h := range hs {
		st = st.Add(h.Stats())
		h.Release()
	}
	return st
}

// probeBacklog reports the heap a default Typed queue retains per queued
// item, not counting the items themselves.
func probeBacklog(o options) (float64, error) {
	items := make([]item, o.fill)
	var h *lcrq.TypedHandle[*item]
	return heapPerItem(o.fill, func() any {
		t := lcrq.NewTyped[*item]()
		h = t.NewHandle()
		return t
	}, func() error {
		for i := range items {
			if !h.Enqueue(&items[i]) {
				return errors.New("backlog probe: enqueue refused")
			}
		}
		return nil
	})
}
