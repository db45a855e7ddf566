package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"lcrq"
	"lcrq/internal/resilience"
	"lcrq/internal/resilience/client"
	"lcrq/internal/resilience/server"
	"lcrq/internal/xrand"
)

const (
	// serviceCapacity bounds the service queue, so whichever of producer
	// and consumer is faster waits on the other. It holds about a quarter
	// second of the producer's sending: the watchdog calls a queue that
	// stays full for two 50 ms ticks capacity-stalled, and the server then
	// sheds enqueues with a Retry-After of at least a second, so a smaller
	// bound would turn a consumer held up by the host for a few tens of
	// milliseconds into a second without load.
	serviceCapacity = 1 << 16
	// serviceMaxBatch is the largest producer batch and consumer max.
	serviceMaxBatch = 64
	// enqueueTimeout is how long the server may hold an enqueue waiting
	// for capacity: long enough that only a consumer stopped for seconds
	// turns backpressure into a partly accepted request.
	enqueueTimeout = 5 * time.Second
	// dequeueWait is the consumer's long-poll: long enough that a host
	// that stops the producer for a while does not turn the consumer's
	// wait into a failed request, short enough that the wait still open
	// when the producer stops ends soon. That wait is not cancelled: the
	// server may notice a cancelled long-poll only after it has taken an
	// item, which would then be lost.
	dequeueWait = 100 * time.Millisecond
	// drainTimeout bounds how long the consumer may take to collect what
	// the producer left queued.
	drainTimeout = 10 * time.Second
	// serviceWindow is the length of the windows a service run is cut
	// into. The run's rates are the median of its windows' rates, so a
	// stall that the host, or the shedder's one-second Retry-After, puts
	// into a few windows does not move them.
	serviceWindow = 250 * time.Millisecond
)

// qserveOptions builds the queue as cmd/qserve does by default.
func qserveOptions() []lcrq.Option {
	return []lcrq.Option{
		lcrq.WithTelemetry(),
		lcrq.WithWatchdog(50 * time.Millisecond),
		lcrq.WithTracing(lcrq.DefaultTraceSampleN),
	}
}

func serviceOptions() []lcrq.Option {
	return append(qserveOptions(), lcrq.WithCapacity(serviceCapacity))
}

// httpStats counts the requests of a workload or rung that speaks HTTP.
type httpStats struct {
	calls    uint64 // client calls
	requests uint64 // requests the server received
	rejects  uint64 // requests the server refused or let expire
	retries  uint64 // retries the clients sent
}

// loopback is an in-process qserve server on 127.0.0.1 with two clients,
// each on its own keep-alive connection. A tracer installed in cur sees
// the client transports and the server handler.
type loopback struct {
	srv        *server.Server
	hs         *http.Server
	served     chan error
	cur        atomic.Pointer[tracer]
	clients    [loaders]*client.Client
	transports [loaders]*http.Transport
}

func newLoopback(q *lcrq.Queue) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	l := &loopback{srv: server.New(server.Config{Queue: q}), served: make(chan error, 1)}
	l.hs = &http.Server{Handler: tracingHandler(l.srv.Handler(), &l.cur)}
	go func() { l.served <- l.hs.Serve(ln) }()
	for i := range l.clients {
		l.transports[i] = &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
		l.clients[i] = client.New(client.Config{
			BaseURL:    "http://" + ln.Addr().String(),
			HTTPClient: &http.Client{Transport: &tracingTransport{base: l.transports[i], cur: &l.cur}},
		})
		// An immediate dequeue of the empty queue opens the connection.
		if _, err := l.clients[i].Dequeue(context.Background(), 1, 0); err != nil {
			l.close()
			return nil, fmt.Errorf("warm-up request: %w", err)
		}
	}
	return l, nil
}

func (l *loopback) httpStats() httpStats {
	c := l.srv.Counters()
	st := httpStats{
		requests: c.EnqueueRequests.Load() + c.DequeueRequests.Load(),
		rejects: c.ShedRejects.Load() + c.FullRejects.Load() + c.ClosedRejects.Load() +
			c.DeadlineExpiry.Load() + c.BadRequests.Load(),
	}
	for _, cl := range l.clients {
		st.retries += cl.Retries.Load()
	}
	return st
}

// close stops the listener and the server, which closes the queue.
func (l *loopback) close() {
	_ = l.hs.Close() // the error is that of closing the listener, already done on failure
	<-l.served
	l.srv.Close()
	for _, t := range l.transports {
		if t != nil {
			t.CloseIdleConnections()
		}
	}
}

// call runs one client call under a call span when tr is set.
func call(tr *tracer, name string, f func(ctx context.Context)) {
	ctx := context.Background()
	if tr == nil {
		f(ctx)
		return
	}
	s := tr.start(name, 0, 0)
	f(withSpan(ctx, s))
	tr.end(s)
}

// serviceEnv drives a loopback server with one producer and one consumer.
// The producer sends seeded batches of 1..serviceMaxBatch values; the
// consumer asks for a seeded max of serviceMaxBatch/2..serviceMaxBatch
// with a short long-poll. Both wait for each answer before sending again.
// The consumer asks for more than the producer sends, so it is the faster
// side and waits on the empty queue, and the capacity bound holds the
// producer only when the consumer stalls: with both sides equal the depth
// wanders to the bound, where the server's wait backoff stalls the
// producer for milliseconds and halves the throughput of some runs.
type serviceEnv struct {
	q     *lcrq.Queue
	lb    *loopback
	base  []uint64
	sent  atomic.Uint64 // items the server accepted
	got   atomic.Uint64 // items the consumer collected
	log   *consumerLog
	sizes *xrand.State // producer batch sizes
	maxes *xrand.State // consumer max per request
	calls uint64
	empty uint64 // long-polls that found the queue empty for their whole wait
	peak  int64  // most rings seen linked while tracing
	err   error
	st    lcrq.Stats
}

func setupService(o options) (env, error) {
	q := lcrq.New(serviceOptions()...)
	lb, err := newLoopback(q)
	if err != nil {
		q.Close()
		return nil, err
	}
	base := streamBases(o.seed)[:1]
	return &serviceEnv{
		q: q, lb: lb, base: base, log: newConsumerLog(base),
		sizes: xrand.New(o.seed ^ 0x5eed0001),
		maxes: xrand.New(o.seed ^ 0x5eed0002),
	}, nil
}

// run lets the producer send until d has passed, then lets the consumer
// collect everything the server accepted. It returns one part per window
// of the producer's sending time; the request counts and round trips of
// the whole run ride on the first.
func (e *serviceEnv) run(d time.Duration, tr *tracer) []part {
	e.lb.cur.Store(tr)
	defer e.lb.cur.Store(nil)
	var sample func()
	if tr != nil {
		sample = func() { e.peak = max(e.peak, e.q.Metrics().LiveRings) }
	}
	var prodDone atomic.Bool
	var marks []mark
	outs, _ := runWorkers(d, sample, func(g int, deadline time.Time) workerOut {
		if g == 0 {
			out, ms := e.produce(deadline, tr)
			marks = ms
			prodDone.Store(true)
			return out
		}
		return e.consume(&prodDone, tr)
	})
	prod, cons := outs[0], outs[1]
	e.calls += prod.ops + cons.ops
	ps := windows(marks)
	ps[0].rttNs = prod.rttNs
	ps[0].attempted = prod.ops + cons.ops
	ps[0].failed = prod.failed + cons.failed
	return ps
}

// mark is where the producer stood at a window boundary: its clock, the
// items the server had accepted, and the items the consumer had collected.
type mark struct {
	at            time.Time
	sent, arrived uint64
}

// windows turns the producer's marks into one part per window. A last
// window shorter than half of serviceWindow is folded into the one before.
func windows(ms []mark) []part {
	if n := len(ms); n > 2 && ms[n-1].at.Sub(ms[n-2].at) < serviceWindow/2 {
		ms = append(ms[:n-2], ms[n-1])
	}
	ps := make([]part, len(ms)-1)
	for i := range ps {
		a, b := ms[i], ms[i+1]
		wall := b.at.Sub(a.at)
		ps[i] = part{
			wall:     wall,
			items:    b.arrived - a.arrived,
			enqItems: b.sent - a.sent,
			deqItems: b.arrived - a.arrived,
			enqTime:  wall,
			deqTime:  wall,
		}
	}
	return ps
}

// produce sends batches until the deadline and returns its requests and
// its marks: one at its start, one at each window boundary it crosses, and
// one at its last answer. A request that errs or is only partly accepted
// counts as failed; the values it did not land lead the next batch.
func (e *serviceEnv) produce(deadline time.Time, tr *tracer) (workerOut, []mark) {
	var out workerOut
	vals := make([]uint64, serviceMaxBatch)
	now := time.Now()
	marks := []mark{{now, e.sent.Load(), e.got.Load()}}
	next := now.Add(serviceWindow)
	for now.Before(deadline) {
		k := 1 + int(e.sizes.Uintn(serviceMaxBatch))
		first := e.base[0] + e.sent.Load()
		for i := range k {
			vals[i] = value(0, first+uint64(i))
		}
		var n int
		var err error
		t0 := time.Now()
		call(tr, spanEnqueueCall, func(ctx context.Context) {
			n, err = e.lb.clients[0].Enqueue(ctx, vals[:k], enqueueTimeout)
		})
		now = time.Now()
		out.rttNs = append(out.rttNs, float64(now.Sub(t0)))
		out.ops++
		if err != nil || n < k {
			out.failed++
		}
		e.sent.Add(uint64(n))
		if !now.Before(next) {
			marks = append(marks, mark{now, e.sent.Load(), e.got.Load()})
			next = now.Add(serviceWindow)
		}
	}
	if len(marks) == 1 || marks[len(marks)-1].at != now {
		marks = append(marks, mark{now, e.sent.Load(), e.got.Load()})
	}
	return out, marks
}

// consume dequeues until the producer is done and every accepted item has
// arrived, and returns its requests. A long-poll that found the queue
// empty for its whole wait, retries included, is an empty dequeue, not a
// failed one: the producer may be held up for that long by the host.
func (e *serviceEnv) consume(prodDone *atomic.Bool, tr *tracer) workerOut {
	var out workerOut
	var drainStart time.Time
	for {
		if prodDone.Load() {
			if e.got.Load() == e.sent.Load() {
				break
			}
			if drainStart.IsZero() {
				drainStart = time.Now()
			} else if time.Since(drainStart) > drainTimeout {
				e.fail(fmt.Errorf("service: %d accepted items not delivered within %v", e.sent.Load()-e.got.Load(), drainTimeout))
				break
			}
		}
		m := serviceMaxBatch/2 + int(e.maxes.Uintn(serviceMaxBatch/2+1))
		var vs []uint64
		var err error
		call(tr, spanDequeueCall, func(ctx context.Context) {
			vs, err = e.lb.clients[1].Dequeue(ctx, m, dequeueWait)
		})
		if err != nil && prodDone.Load() && e.got.Load() == e.sent.Load() {
			// The long-poll began before the producer's last batch was
			// known to be its last, and every item had already arrived:
			// nothing was left to deliver.
			break
		}
		out.ops++
		if err != nil {
			if emptyPoll(err) {
				e.empty++
			} else {
				out.failed++
			}
			continue
		}
		for _, v := range vs {
			e.log.observe(v)
		}
		e.got.Add(uint64(len(vs)))
	}
	return out
}

// emptyPoll reports whether err is the server's answer to a long-poll
// that stayed empty for its whole wait.
func emptyPoll(err error) bool {
	var apiErr *client.APIError
	return errors.As(err, &apiErr) && apiErr.Status == http.StatusGatewayTimeout &&
		apiErr.Token == resilience.ErrTokenDeadline
}

func (e *serviceEnv) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

func (e *serviceEnv) finish() error {
	if e.err != nil {
		return e.err
	}
	vs, err := e.lb.clients[1].Dequeue(context.Background(), 1, 0)
	if err != nil {
		return fmt.Errorf("service: final dequeue: %w", err)
	}
	if len(vs) > 0 {
		return fmt.Errorf("service: queue still held %#x after the consumer collected every accepted item", vs[0])
	}
	return verify([]uint64{e.sent.Load()}, []*consumerLog{e.log})
}

func (e *serviceEnv) liveRingsPeak() int64 { return e.peak }

func (e *serviceEnv) close() {
	e.lb.close()
	e.st = e.q.Metrics().Stats
}

func (e *serviceEnv) stats() lcrq.Stats { return e.st }

func (e *serviceEnv) httpStats() httpStats {
	st := e.lb.httpStats()
	st.calls = e.calls
	return st
}

// probeService reports the heap the service's queue retains per queued
// item when filled to its capacity.
func probeService(o options) (float64, error) {
	var q *lcrq.Queue
	var h *lcrq.Handle
	perItem, err := heapPerItem(serviceCapacity, func() any {
		q = lcrq.New(serviceOptions()...)
		h = q.NewHandle()
		return q
	}, func() error {
		for i := range serviceCapacity {
			if !h.Enqueue(uint64(i)) {
				return errors.New("service probe: enqueue refused below capacity")
			}
		}
		return nil
	})
	h.Release()
	q.Close()
	return perItem, err
}
