package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"lcrq"
)

// pairsEnv is the paper's pairwise workload: each load goroutine owns a
// Handle on a default queue and alternates Enqueue and Dequeue, so the
// queue never holds more than one item per goroutine. A run is split into
// parts and every part after the first runs on a fresh queue with fresh
// handles: where the allocator happens to put the two handles' hazard
// slots, on one cache line or apart, changes the cost of a pair by half,
// so a run averages over many placements.
type pairsEnv struct {
	parts int
	q     *lcrq.Queue
	hs    [loaders]*lcrq.Handle
	logs  []*consumerLog
	base  []uint64
	sent  [loaders]uint64 // items each goroutine has enqueued
	lost  uint64          // refused enqueues and empty dequeues
	peak  int64           // most rings seen linked while tracing
	st    lcrq.Stats
}

func setupPairs(o options) (env, error) {
	e := &pairsEnv{base: streamBases(o.seed)}
	for range loaders {
		e.logs = append(e.logs, newConsumerLog(e.base))
	}
	e.open()
	return e, nil
}

func (e *pairsEnv) open() {
	e.q = lcrq.New()
	for g := range e.hs {
		e.hs[g] = e.q.NewHandle()
	}
}

// pairsParts is how many fresh queues one run is spread over.
const pairsParts = 400

func (e *pairsEnv) run(d time.Duration, tr *tracer) []part {
	ps := make([]part, pairsParts)
	for i := range ps {
		if e.parts > 0 {
			e.close()
			e.open()
		}
		e.parts++
		ps[i] = e.runPart(d/pairsParts, tr)
	}
	return ps
}

func (e *pairsEnv) runPart(d time.Duration, tr *tracer) part {
	var sample func()
	if tr != nil {
		sample = func() { e.peak = max(e.peak, e.q.Metrics().LiveRings) }
	}
	outs, wall := runWorkers(d, sample, func(g int, deadline time.Time) workerOut {
		h, log := e.hs[g], e.logs[g]
		seq := e.base[g] + e.sent[g]
		var out workerOut
		spans := startBlockSpans(tr, spanWorker)
		for t0 := time.Now(); t0.Before(deadline); {
			spans.begin()
			for range rttBlock {
				if !h.Enqueue(value(g, seq)) {
					out.failed++
				}
				seq++
				// Each goroutine dequeues only after its own enqueue, so
				// the queue is never empty here: an empty result is a
				// correctness failure.
				if v, ok := h.Dequeue(); ok {
					log.observe(v)
				} else {
					out.failed++
				}
			}
			t1 := time.Now()
			out.rttNs = append(out.rttNs, float64(t1.Sub(t0))/rttBlock)
			out.ops += rttBlock
			spans.done()
			t0 = t1
		}
		spans.finish()
		e.sent[g] = seq - e.base[g]
		return out
	})
	p := part{wall: wall, enqTime: wall, deqTime: wall}
	for _, out := range outs {
		p.items += out.ops
		p.attempted += out.ops
		p.failed += out.failed
		p.rttNs = append(p.rttNs, out.rttNs...)
	}
	p.enqItems, p.deqItems = p.items, p.items
	e.lost += p.failed
	return p
}

func (e *pairsEnv) finish() error {
	if e.lost > 0 {
		return fmt.Errorf("pairs: %d enqueues refused or dequeues found the queue empty after their own enqueue", e.lost)
	}
	if v, ok := e.hs[0].Dequeue(); ok {
		return fmt.Errorf("pairs: queue still held %#x after every pair completed", v)
	}
	return verify(e.sent[:], e.logs)
}

func (e *pairsEnv) liveRingsPeak() int64 { return e.peak }

func (e *pairsEnv) close() {
	for _, h := range e.hs {
		e.st = e.st.Add(h.Stats())
		h.Release()
	}
	e.q.Close()
}

func (e *pairsEnv) stats() lcrq.Stats { return e.st }

// probePairs reports the heap a default queue retains per queued item,
// filled to the backlog depth.
func probePairs(o options) (float64, error) {
	var h *lcrq.Handle
	return heapPerItem(o.fill, func() any {
		q := lcrq.New()
		h = q.NewHandle()
		return q
	}, func() error {
		for i := range o.fill {
			if !h.Enqueue(uint64(i)) {
				return errors.New("pairs probe: enqueue refused")
			}
		}
		return nil
	})
}

// heapPerItem measures the live heap before build and after fill, each
// time after a forced collection, and divides the growth by n: the heap
// the queue holds per item at that depth, its empty rings included. build
// returns what must stay reachable until the second measurement.
func heapPerItem(n int, build func() any, fill func() error) (float64, error) {
	before := liveHeap()
	keep := build()
	if err := fill(); err != nil {
		return 0, err
	}
	after := liveHeap()
	runtime.KeepAlive(keep)
	return (float64(after) - float64(before)) / float64(n), nil
}

func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
