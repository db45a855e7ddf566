package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Span names. A service request yields one call span from the client side,
// one round-trip span per HTTP exchange inside it, and one serve span per
// handler invocation inside that; all three share the call's trace ID.
// Serve spans are named by route, because a dequeue's includes its
// long-poll wait. In-process workloads time blocks of operations, because
// one operation costs about as much as reading the clock.
const (
	spanEnqueueCall = "client.enqueue"
	spanDequeueCall = "client.dequeue"
	spanRoundTrip   = "http.roundtrip"
	spanServeEnq    = "server.serve.enqueue"
	spanServeDeq    = "server.serve.dequeue"
	spanWorker      = "worker"
	spanBlock       = "block"
	spanFill        = "backlog.fill"
	spanDrain       = "backlog.drain"
)

// spanHeader carries "<trace>/<parent>" in hex from the client's transport
// to the server's handler.
const spanHeader = "X-Perfbench-Span"

// maxKeptSpans bounds the spans kept for the dump; totals cover every span.
const maxKeptSpans = 1 << 16

type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type spanTotal struct {
	n  int64
	ns int64
}

// tracer keeps spans in memory until write. Times are nanoseconds since
// the tracer was made, on the monotonic clock. Safe for concurrent use.
type tracer struct {
	t0  time.Time
	ids atomic.Uint64

	mu      sync.Mutex
	kept    []span
	dropped int
	totals  map[string]spanTotal
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), totals: map[string]spanTotal{}}
}

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// start opens a span; end it with tracer.end.
func (t *tracer) start(name string, trace, parent uint64) span {
	id := t.newID()
	if trace == 0 {
		trace = id
	}
	return span{Trace: trace, ID: id, Parent: parent, Name: name, Start: t.now()}
}

func (t *tracer) end(s span) {
	s.End = t.now()
	t.mu.Lock()
	tot := t.totals[s.Name]
	tot.n++
	tot.ns += s.End - s.Start
	t.totals[s.Name] = tot
	if len(t.kept) < maxKeptSpans {
		t.kept = append(t.kept, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// total returns how many spans of a name ended and their summed duration.
func (t *tracer) total(name string) (n int64, ns int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	tot := t.totals[name]
	return tot.n, tot.ns
}

// write dumps the kept spans as JSON lines, after one header line that
// says how many were dropped past the cap.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(map[string]int{"kept": len(t.kept), "dropped": t.dropped}); err != nil {
		f.Close()
		return err
	}
	for _, s := range t.kept {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanRef names the span a call runs under; it rides in the context from
// the client call down to the transport.
type spanRef struct{ trace, id uint64 }

type spanKey struct{}

func withSpan(ctx context.Context, s span) context.Context {
	return context.WithValue(ctx, spanKey{}, spanRef{s.Trace, s.ID})
}

// tracingTransport opens a round-trip span under the call span found in
// the request's context, passes the span on to the server in spanHeader,
// and ends it when the client closes the response body. With no tracer
// installed it passes requests straight through.
type tracingTransport struct {
	base http.RoundTripper
	cur  *atomic.Pointer[tracer]
}

func (t *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	tr := t.cur.Load()
	ref, ok := req.Context().Value(spanKey{}).(spanRef)
	if tr == nil || !ok {
		return t.base.RoundTrip(req)
	}
	s := tr.start(spanRoundTrip, ref.trace, ref.id)
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, fmt.Sprintf("%x/%x", s.Trace, s.ID))
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		tr.end(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() { tr.end(s) }}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

// tracingHandler records a serve span around next for every request that
// carries spanHeader while a tracer is installed.
func tracingHandler(next http.Handler, cur *atomic.Pointer[tracer]) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := cur.Load()
		if tr == nil {
			next.ServeHTTP(w, r)
			return
		}
		var trace, parent uint64
		if _, err := fmt.Sscanf(r.Header.Get(spanHeader), "%x/%x", &trace, &parent); err != nil {
			next.ServeHTTP(w, r)
			return
		}
		name := spanServeDeq
		if r.URL.Path == "/v1/enqueue" {
			name = spanServeEnq
		}
		s := tr.start(name, trace, parent)
		next.ServeHTTP(w, r)
		tr.end(s)
	})
}
