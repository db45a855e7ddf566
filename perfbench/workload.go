package main

import (
	"sync"
	"time"

	"lcrq"
)

// loaders is the number of load goroutines every workload runs, and the
// number of producers whose value streams the checkers track.
const loaders = 2

// rttBlock is how many in-process operations are timed together for one
// round-trip sample: one operation costs about as much as a clock read.
const rttBlock = 64

// spanBlocks is how many rttBlocks one traced block span covers.
const spanBlocks = 16

// env is one workload set up and ready to drive.
type env interface {
	// run drives the load for about d and reports what each part of it
	// measured. With a tracer it also records spans and samples the
	// queue's ring count.
	run(d time.Duration, tr *tracer) []part
	// finish drains what is still queued and checks that every item was
	// delivered exactly once and in per-producer order.
	finish() error
	// liveRingsPeak is the most ring segments seen linked at once while
	// tracing.
	liveRingsPeak() int64
	// close releases the workload's handles, queues and servers.
	close()
	// stats returns the operation counters of the workload's queue; call
	// it after close.
	stats() lcrq.Stats
}

type workload struct {
	setup func(o options) (env, error)
	// memProbe fills a fresh queue built as the workload builds its own
	// and returns the heap retained per queued item.
	memProbe func(o options) (float64, error)
	// windowed says the run's parts are time windows of one load, and its
	// rates are the median of the windows' rates. Otherwise they are the
	// rates of the parts' sum: pairs and backlog parts run on fresh queues
	// whose hazard slot placement makes a part fast or slow, and a median
	// of two modes would flip between them.
	windowed bool
}

var workloads = map[string]workload{
	"pairs":   {setupPairs, probePairs, false},
	"backlog": {setupBacklog, probeBacklog, false},
	"service": {setupService, probeService, true},
}

// part is what one stretch of load measured.
type part struct {
	wall      time.Duration
	items     uint64        // items that made the whole trip
	enqItems  uint64        // items enqueued
	deqItems  uint64        // items dequeued
	enqTime   time.Duration // time the enqueue side was measured over
	deqTime   time.Duration // time the dequeue side was measured over
	rttNs     []float64     // per-operation round trips, ns
	untimed   uint64        // items moved by untimed cycles inside the part
	attempted uint64        // operations or requests attempted
	failed    uint64        // of which failed or refused
}

func (p part) rate() float64 { return float64(p.items) / p.wall.Seconds() }

func (p part) enqRate() float64 { return float64(p.enqItems) / p.enqTime.Seconds() }

func (p part) deqRate() float64 { return float64(p.deqItems) / p.deqTime.Seconds() }

// medianRates returns the median over the parts of each rate.
func medianRates(ps []part) (items, enq, deq float64) {
	var is, es, ds []float64
	for _, p := range ps {
		is, es, ds = append(is, p.rate()), append(es, p.enqRate()), append(ds, p.deqRate())
	}
	return median(is), median(es), median(ds)
}

// sum adds parts up into one; the end-to-end metrics are taken from the
// sum of a run's parts.
func sum(ps []part) part {
	var t part
	for _, p := range ps {
		t.wall += p.wall
		t.items += p.items
		t.enqItems += p.enqItems
		t.deqItems += p.deqItems
		t.enqTime += p.enqTime
		t.deqTime += p.deqTime
		t.rttNs = append(t.rttNs, p.rttNs...)
		t.untimed += p.untimed
		t.attempted += p.attempted
		t.failed += p.failed
	}
	return t
}

// workerOut is one load goroutine's share of a part.
type workerOut struct {
	ops, items, failed uint64
	rttNs              []float64
}

// runWorkers starts one goroutine per worker, each running work until the
// deadline d from now, and returns once all have ended. Workers read the
// clock themselves: a goroutine waiting to signal them would wait for a
// processor while they keep both busy. sample, when set, is called every
// 10ms until then, on the calling goroutine.
func runWorkers(d time.Duration, sample func(), work func(g int, deadline time.Time) workerOut) ([]workerOut, time.Duration) {
	outs := make([]workerOut, loaders)
	var wg sync.WaitGroup
	t0 := time.Now()
	deadline := t0.Add(d)
	done := make(chan struct{})
	for g := range loaders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[g] = work(g, deadline)
		}()
	}
	go func() {
		wg.Wait()
		close(done)
	}()
	var tick <-chan time.Time
	if sample != nil {
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-done:
			return outs, time.Since(t0)
		case <-tick:
			sample()
		}
	}
}

// blockSpans records, for one load goroutine, a parent span and a child
// span per spanBlocks timed blocks. With a nil tracer it does nothing.
type blockSpans struct {
	tr     *tracer
	parent span
	cur    span
	n      int
}

func startBlockSpans(tr *tracer, name string) *blockSpans {
	b := &blockSpans{tr: tr}
	if tr != nil {
		b.parent = tr.start(name, 0, 0)
	}
	return b
}

// begin is called before each timed block, done after it.
func (b *blockSpans) begin() {
	if b.tr != nil && b.n%spanBlocks == 0 {
		b.cur = b.tr.start(spanBlock, b.parent.Trace, b.parent.ID)
	}
}

func (b *blockSpans) done() {
	if b.tr == nil {
		return
	}
	b.n++
	if b.n%spanBlocks == 0 {
		b.tr.end(b.cur)
	}
}

// finish ends an open block span and the parent.
func (b *blockSpans) finish() {
	if b.tr == nil {
		return
	}
	if b.n%spanBlocks != 0 {
		b.tr.end(b.cur)
	}
	b.tr.end(b.parent)
}
