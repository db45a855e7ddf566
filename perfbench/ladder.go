package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"lcrq"
	"lcrq/internal/core"
	"lcrq/internal/resilience/client"
	"lcrq/internal/resilience/server"
	"lcrq/internal/xrand"
)

// The layer ladder runs the pairs op sequence (each goroutine enqueues one
// item, then dequeues one) at each rung of the stack, from a buffered
// channel up to the HTTP server, and reports each rung's absolute cost and
// its ratio to the rung below. Rungs are interleaved in rounds, in
// alternating order, so drift on the host is common to all of them, and
// every round opens each rung afresh, so each rung's cost averages over
// where the allocator put its handles (see pairsEnv).
const ladderRounds = 20

// pairer runs one enqueue-then-dequeue step on one goroutine's context and
// returns how many items the dequeue side returned. It is never 0 on a
// correct queue: the goroutine's own item is there to take.
type pairer interface{ pair(v uint64) int }

type rung struct {
	name  string
	below string // the rung this one builds on, for the printed ratio
	open  func() (ps [loaders]pairer, closeFn func(), err error)
}

// rungTotals is what a rung measured in one drive, or summed over all
// rounds. An item is one pair on every rung but the batch rung, which
// moves a batch per pair.
type rungTotals struct {
	pairs, items, failed, allocs uint64
	wall                         time.Duration
}

func (t *rungTotals) add(o rungTotals) {
	t.pairs += o.pairs
	t.items += o.items
	t.failed += o.failed
	t.allocs += o.allocs
	t.wall += o.wall
}

// nsPerItem is the wall time per item moved by both goroutines together.
func (t *rungTotals) nsPerItem() float64 { return float64(t.wall) / float64(max(t.items, 1)) }

type ladderResult struct {
	order  []rung
	rungs  map[string]*rungTotals
	failed uint64
	http   httpStats // the loopback rung's, when it ran
}

// ratio is rung a's ns per item divided by rung b's.
func (l *ladderResult) ratio(a, b string) float64 {
	return l.rungs[a].nsPerItem() / l.rungs[b].nsPerItem()
}

// Rung names, in ladder order.
const (
	rungChan     = "baseline.chan"
	rungCAS2     = "core.ring"
	rungSCQ      = "core.ring.scq"
	rungHazard   = "core.list"
	rungEpoch    = "core.list.epoch"
	rungGC       = "core.list.gc"
	rungHandle   = "lcrq.handle"
	rungQueue    = "lcrq.queue"
	rungBatch    = "lcrq.queue.batch"
	rungTel      = "telemetry"
	rungTyped    = "lcrq.typed"
	rungInproc   = "server.inproc"
	rungLoopback = "client.loopback"
)

func ladderRungs(o options, tr *tracer, loopback bool) []rung {
	rs := []rung{
		{name: rungChan, open: func() ([loaders]pairer, func(), error) {
			ch := make(chanPairer, 1<<16) // the capacity of the repo's channel comparison benchmark
			return [loaders]pairer{ch, ch}, func() {}, nil
		}},
		{name: rungCAS2, below: rungChan, open: openRing(core.RingCAS2)},
		{name: rungSCQ, below: rungCAS2, open: openRing(core.RingSCQ)},
		{name: rungHazard, below: rungCAS2, open: openList(core.ReclaimHazard)},
		{name: rungEpoch, below: rungHazard, open: openList(core.ReclaimEpoch)},
		{name: rungGC, below: rungHazard, open: openList(core.ReclaimGC)},
		{name: rungHandle, below: rungHazard, open: openHandle()},
		{name: rungQueue, below: rungHandle, open: func() ([loaders]pairer, func(), error) {
			q := lcrq.New()
			return [loaders]pairer{queuePairer{q}, queuePairer{q}}, q.Close, nil
		}},
		{name: rungBatch, below: rungQueue, open: func() ([loaders]pairer, func(), error) {
			q := lcrq.New()
			var ps [loaders]pairer
			for g := range ps {
				ps[g] = &batchPairer{q: q, sizes: xrand.New(o.seed ^ uint64(g+1)),
					in: make([]uint64, serviceMaxBatch), out: make([]uint64, serviceMaxBatch)}
			}
			return ps, q.Close, nil
		}},
		{name: rungTel, below: rungHandle, open: openHandle(qserveOptions()...)},
		{name: rungTyped, below: rungHandle, open: func() ([loaders]pairer, func(), error) {
			t := lcrq.NewTyped[*item]()
			var ps [loaders]pairer
			var hs [loaders]*lcrq.TypedHandle[*item]
			for g := range ps {
				hs[g] = t.NewHandle()
				ps[g] = typedPairer{hs[g], &item{}}
			}
			return ps, func() {
				for _, h := range hs {
					h.Release()
				}
				t.Close()
			}, nil
		}},
		{name: rungInproc, below: rungTel, open: func() ([loaders]pairer, func(), error) {
			srv := server.New(server.Config{Queue: lcrq.New(qserveOptions()...)})
			var ps [loaders]pairer
			for g := range ps {
				ps[g] = &inprocPairer{h: srv.Handler()}
			}
			return ps, srv.Close, nil
		}},
	}
	if loopback {
		rs = append(rs, rung{name: rungLoopback, below: rungInproc, open: func() ([loaders]pairer, func(), error) {
			lb, err := newLoopback(lcrq.New(qserveOptions()...))
			if err != nil {
				return [loaders]pairer{}, nil, err
			}
			lb.cur.Store(tr)
			var ps [loaders]pairer
			for g := range ps {
				ps[g] = &loopbackPairer{c: lb.clients[g], lb: lb, tr: tr}
			}
			return ps, lb.close, nil
		}})
	}
	return rs
}

// runLadder drives every rung for o.ladderSlice in each round, opening
// and closing it around the drive. The loopback rung runs only when asked
// for; its spans go to tr.
func runLadder(o options, tr *tracer, loopback bool) (*ladderResult, error) {
	rs := ladderRungs(o, tr, loopback)
	res := &ladderResult{order: rs, rungs: map[string]*rungTotals{}}
	for _, r := range rs {
		res.rungs[r.name] = &rungTotals{}
	}
	for round := range ladderRounds {
		for k := range rs {
			r := rs[k]
			if round%2 == 1 {
				r = rs[len(rs)-1-k]
			}
			ps, closeFn, err := r.open()
			if err != nil {
				return nil, fmt.Errorf("ladder rung %s: %w", r.name, err)
			}
			b := drive(ps, o.ladderSlice)
			if lp, ok := ps[0].(*loopbackPairer); ok {
				st := lp.lb.httpStats()
				res.http.requests += st.requests
				res.http.rejects += st.rejects
				res.http.retries += st.retries
				res.http.calls += 2 * b.pairs
			}
			closeFn()
			res.rungs[r.name].add(b)
			res.failed += b.failed
		}
	}
	return res, nil
}

// drive runs pairs on both goroutines for d.
func drive(ps [loaders]pairer, d time.Duration) rungTotals {
	rt0 := readRuntime()
	outs, wall := runWorkers(d, nil, func(g int, deadline time.Time) workerOut {
		p := ps[g]
		var out workerOut
		seq := uint64(0)
		for time.Now().Before(deadline) {
			for range 16 {
				n := p.pair(value(g, seq))
				seq++
				out.ops++
				out.items += uint64(n)
				if n == 0 {
					out.failed++
				}
			}
		}
		return out
	})
	b := rungTotals{wall: wall, allocs: uint64(readRuntime().sub(rt0).allocObjects)}
	for _, out := range outs {
		b.pairs += out.ops
		b.items += out.items
		b.failed += out.failed
	}
	return b
}

type chanPairer chan uint64

func (c chanPairer) pair(v uint64) int {
	c <- v
	<-c
	return 1
}

// corePairer runs a bare ring (list == nil) or the core list.
type corePairer struct {
	ring *core.CRQ
	list *core.LCRQ
	h    *core.Handle
}

func (p corePairer) pair(v uint64) int {
	if p.ring != nil {
		if !p.ring.Enqueue(p.h, v) {
			return 0
		}
		if _, ok := p.ring.Dequeue(p.h); ok {
			return 1
		}
		return 0
	}
	p.list.Enqueue(p.h, v)
	if _, ok := p.list.Dequeue(p.h); ok {
		return 1
	}
	return 0
}

// openRing opens one bare ring of the default order. Two goroutines never
// hold more than two items, so the ring never fills and never closes.
func openRing(kind core.RingKind) func() ([loaders]pairer, func(), error) {
	return func() ([loaders]pairer, func(), error) {
		r := core.NewCRQ(core.Config{Ring: kind})
		var ps [loaders]pairer
		for g := range ps {
			ps[g] = corePairer{ring: r, h: core.NewHandle()}
		}
		return ps, func() {}, nil
	}
}

func openList(rec core.Reclamation) func() ([loaders]pairer, func(), error) {
	return func() ([loaders]pairer, func(), error) {
		q := core.NewLCRQ(core.Config{Reclamation: rec})
		var ps [loaders]pairer
		var hs [loaders]*core.Handle
		for g := range ps {
			hs[g] = q.NewHandle()
			ps[g] = corePairer{list: q, h: hs[g]}
		}
		return ps, func() {
			for _, h := range hs {
				h.Release()
			}
		}, nil
	}
}

type handlePairer struct{ h *lcrq.Handle }

func (p handlePairer) pair(v uint64) int {
	p.h.Enqueue(v)
	if _, ok := p.h.Dequeue(); ok {
		return 1
	}
	return 0
}

func openHandle(opts ...lcrq.Option) func() ([loaders]pairer, func(), error) {
	return func() ([loaders]pairer, func(), error) {
		q := lcrq.New(opts...)
		var ps [loaders]pairer
		var hs [loaders]*lcrq.Handle
		for g := range ps {
			hs[g] = q.NewHandle()
			ps[g] = handlePairer{hs[g]}
		}
		return ps, func() {
			for _, h := range hs {
				h.Release()
			}
			q.Close()
		}, nil
	}
}

type queuePairer struct{ q *lcrq.Queue }

func (p queuePairer) pair(v uint64) int {
	p.q.Enqueue(v)
	if _, ok := p.q.Dequeue(); ok {
		return 1
	}
	return 0
}

// batchPairer enqueues a seeded batch of 1..serviceMaxBatch values and
// dequeues a batch of the same size through the pooled Queue, as the
// service's server does. The other goroutine may take some of the items,
// but never all: it dequeues no more than it enqueued.
type batchPairer struct {
	q       *lcrq.Queue
	sizes   *xrand.State
	in, out []uint64
}

func (p *batchPairer) pair(v uint64) int {
	k := 1 + int(p.sizes.Uintn(serviceMaxBatch))
	for i := range k {
		p.in[i] = v
	}
	if n, _ := p.q.EnqueueBatch(p.in[:k]); n != k {
		return 0
	}
	return p.q.DequeueBatch(p.out[:k])
}

type typedPairer struct {
	h  *lcrq.TypedHandle[*item]
	it *item
}

func (p typedPairer) pair(v uint64) int {
	p.it.v = v
	p.h.Enqueue(p.it)
	if _, ok := p.h.Dequeue(); ok {
		return 1
	}
	return 0
}

// inprocPairer calls the server's handler directly with httptest requests
// and recorders: the server's cost without TCP or the client.
type inprocPairer struct {
	h    http.Handler
	body []byte
}

var valuesPrefix = []byte(`{"values":[`)

func (p *inprocPairer) pair(v uint64) int {
	p.body = append(strconv.AppendUint(append(p.body[:0], valuesPrefix...), v, 10), "]}"...)
	if rec := p.serve("/v1/enqueue", bytes.NewReader(p.body)); rec.Code != http.StatusOK {
		return 0
	}
	rec := p.serve("/v1/dequeue", strings.NewReader(`{"max":1}`))
	got := rec.Body.Bytes()
	if rec.Code != http.StatusOK || !bytes.HasPrefix(got, valuesPrefix) || got[len(valuesPrefix)] == ']' {
		return 0
	}
	return 1
}

func (p *inprocPairer) serve(path string, body io.Reader) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	p.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, body))
	return rec
}

// loopbackPairer sends the pair as two client calls over loopback TCP,
// under call spans when tr is set.
type loopbackPairer struct {
	c    *client.Client
	lb   *loopback
	tr   *tracer
	vals [1]uint64
}

func (p *loopbackPairer) pair(v uint64) int {
	p.vals[0] = v
	var n int
	var err error
	call(p.tr, spanEnqueueCall, func(ctx context.Context) { n, err = p.c.Enqueue(ctx, p.vals[:], 0) })
	if err != nil || n != 1 {
		return 0
	}
	var vs []uint64
	call(p.tr, spanDequeueCall, func(ctx context.Context) { vs, err = p.c.Dequeue(ctx, 1, 0) })
	if err != nil {
		return 0
	}
	return len(vs)
}
