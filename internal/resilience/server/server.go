// Package server is the queue-as-a-service HTTP/JSON front end mounted by
// cmd/qserve. It maps the in-process resilience vocabulary onto the wire:
//
//   - per-request deadlines propagate into EnqueueWait / DequeueWait, so a
//     client's timeout bounds the server-side wait exactly;
//   - ErrFull after a whole deadline becomes 429 with a Retry-After derived
//     from the recently observed drain rate; ErrClosed becomes 503;
//     deadline expiry on an empty long-poll becomes 504;
//   - an admission controller (internal/resilience.Shedder) rejects
//     enqueues with 429 *before* they touch the hot path while the queue's
//     watchdog reports capacity-stall or append-livelock, with hysteresis
//     on recovery;
//   - SIGTERM (or POST /admin/drain) begins a graceful drain: enqueues are
//     refused, in-flight accepts settle, the queue closes, and consumers
//     empty it under a drain deadline before the listener shuts.
//
// The handler tree: POST /v1/enqueue, POST /v1/dequeue, GET /healthz,
// GET /statsz, GET /metrics (queue + server series on one scrape), and
// POST /admin/drain. See DESIGN.md §12 for the full protocol.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"lcrq"
	"lcrq/internal/buildmeta"
	"lcrq/internal/resilience"
)

// Config configures a Server. Queue is required; everything else has
// serviceable defaults.
type Config struct {
	// Queue is the backend. The server takes over its lifecycle: Drain
	// closes it.
	Queue *lcrq.Queue

	// MaxBatch caps values per enqueue/dequeue request (default 1024).
	MaxBatch int
	// MaxDeadline caps client-requested waits (default 60s). A client
	// asking for more gets this much.
	MaxDeadline time.Duration
	// DrainDeadline bounds the graceful drain: how long consumers get to
	// empty the queue after enqueues stop (default 30s).
	DrainDeadline time.Duration
	// HealthPoll is how often the shedder and drain-rate estimator sample
	// the queue (default 25ms). Shed reaction time is one poll after the
	// watchdog's verdict flip.
	HealthPoll time.Duration
	// Shed configures the admission controller.
	Shed resilience.ShedConfig
	// DedupCapacity sizes the idempotency cache (default 65536; < 0
	// disables dedup).
	DedupCapacity int
	// Blackbox, when set, is mounted at GET /admin/blackbox — cmd/qserve
	// passes the flight recorder's dump handler so operators can pull the
	// always-on incident record from a live process.
	Blackbox http.Handler
	// Logf, when set, receives one line per lifecycle transition.
	Logf func(format string, args ...any)
}

// Server is one queue's front end. Create with New, mount Handler, and
// call Drain then Close on the way out.
type Server struct {
	cfg   Config
	q     *lcrq.Queue
	shed  *resilience.Shedder
	rate  *resilience.DrainRate
	life  *resilience.Lifecycle
	dedup *resilience.Dedup
	ctrs  resilience.Counters
	build buildmeta.Meta // collected once at startup; /statsz embeds it
	mux   *http.ServeMux

	enqGate   sync.RWMutex // held (R) across each enqueue; (W) by drain to settle them
	lastDepth atomic.Int64 // queue depth as of the last health poll
	drainOnce sync.Once
	drainErr  error
}

// New returns a serving front end and starts its health-poll loop. The
// loop stops when the server reaches Closed (after Drain, or Close).
func New(cfg Config) *Server {
	if cfg.Queue == nil {
		panic("server.New: Config.Queue is required")
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 1024
	}
	if cfg.MaxDeadline <= 0 {
		cfg.MaxDeadline = 60 * time.Second
	}
	if cfg.DrainDeadline <= 0 {
		cfg.DrainDeadline = 30 * time.Second
	}
	if cfg.HealthPoll <= 0 {
		cfg.HealthPoll = 25 * time.Millisecond
	}
	if cfg.DedupCapacity == 0 {
		cfg.DedupCapacity = 65536
	}
	s := &Server{
		cfg:   cfg,
		q:     cfg.Queue,
		shed:  resilience.NewShedder(cfg.Shed),
		rate:  &resilience.DrainRate{},
		life:  &resilience.Lifecycle{},
		dedup: resilience.NewDedup(cfg.DedupCapacity),
		build: buildmeta.Collect(),
		mux:   http.NewServeMux(),
	}
	s.mux.HandleFunc("POST /v1/enqueue", s.handleEnqueue)
	s.mux.HandleFunc("POST /v1/dequeue", s.handleDequeue)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /statsz", s.handleStatsz)
	s.mux.Handle("GET /metrics", s.metricsHandler())
	s.mux.Handle("GET /traces", s.q.TraceHandler())
	s.mux.HandleFunc("POST /admin/drain", s.handleAdminDrain)
	if cfg.Blackbox != nil {
		s.mux.Handle("GET /admin/blackbox", cfg.Blackbox)
	}
	go s.poll()
	return s
}

// Handler returns the server's handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Counters exposes the operation ledger (for tests and expvar publication).
func (s *Server) Counters() *resilience.Counters { return &s.ctrs }

// State returns the lifecycle state.
func (s *Server) State() resilience.State { return s.life.State() }

// Shedding reports whether the admission controller is rejecting enqueues.
func (s *Server) Shedding() bool { return s.shed.Shedding() }

// poll feeds the shedder and the drain-rate estimator until the lifecycle
// closes. Items delivered by this server is the rate signal — exact,
// telemetry-independent, and exactly what a Retry-After promise is about.
func (s *Server) poll() {
	t := time.NewTicker(s.cfg.HealthPoll)
	defer t.Stop()
	for {
		select {
		case <-s.life.Done():
			return
		case <-t.C:
			h := s.q.Health()
			s.shed.Observe(h.OK, h.Verdict)
			s.ctrs.HealthPolls.Add(1)
			s.rate.Observe(time.Now(), s.ctrs.ItemsDelivered.Load())
			s.lastDepth.Store(s.q.Metrics().Depth)
		}
	}
}

// logf logs a lifecycle line, if a logger was configured.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Drain performs the graceful shutdown of the accept side, blocking until
// the queue is empty or the drain deadline passes:
//
//  1. flip to Draining — new enqueues get 503 immediately;
//  2. settle in-flight enqueue RPCs (their waits are cut short by the
//     drain context), so the accepted set is final;
//  3. Close the queue — remote consumers keep dequeuing what remains;
//  4. wait for empty (or the deadline, counted in DrainExpiry).
//
// The caller still owns the listener: call http.Server.Shutdown after
// Drain so in-flight dequeue responses flush, then Close. Drain is
// idempotent; concurrent calls share one drain and its result.
func (s *Server) Drain(ctx context.Context) error {
	s.drainOnce.Do(func() { s.drainErr = s.drain(ctx) })
	return s.drainErr
}

func (s *Server) drain(ctx context.Context) error {
	if s.life.BeginDrain() {
		s.ctrs.DrainsBegun.Add(1)
		s.logf("qserve: drain begun (deadline %v, depth ~%d)", s.cfg.DrainDeadline, s.lastDepth.Load())
	}
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.DrainDeadline)
		defer cancel()
	}

	// Settle in-flight enqueues. Their wait loops observe DrainBegun
	// through the per-request context, so this gate closes within one
	// poll of the flip rather than a full client deadline later.
	s.enqGate.Lock()
	s.enqGate.Unlock() //nolint:staticcheck // empty critical section is the settle barrier

	// No enqueue can be in or past the hot path now: close, then let
	// consumers empty what was accepted.
	s.q.Close()
	for {
		m := s.q.Metrics()
		if m.Depth <= 0 && m.Items <= 0 {
			s.logf("qserve: drain complete (%d items delivered after drain began)", s.ctrs.DrainedItems.Load())
			return nil
		}
		select {
		case <-ctx.Done():
			s.ctrs.DrainExpiry.Add(1)
			s.logf("qserve: drain deadline expired with ~%d items queued", m.Depth)
			return fmt.Errorf("drain deadline expired with ~%d items queued: %w", m.Depth, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// Close marks the lifecycle Closed (stopping the poll loop) and closes the
// queue if Drain never ran. Call after the HTTP listener has shut down.
func (s *Server) Close() {
	s.life.MarkClosed()
	s.q.Close() // idempotent; covers the abort-without-drain path
}

// reqContext derives the operation context: the request's own context
// (client disconnects propagate) bounded by the requested timeout, capped
// at MaxDeadline, and — for enqueues — cut short when a drain begins.
func (s *Server) reqContext(r *http.Request, timeoutMs int64, cancelOnDrain bool) (context.Context, context.CancelFunc) {
	d := time.Duration(timeoutMs) * time.Millisecond
	if d > s.cfg.MaxDeadline {
		d = s.cfg.MaxDeadline
	}
	ctx := r.Context()
	var cancels []context.CancelFunc
	if d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		cancels = append(cancels, cancel)
	}
	if cancelOnDrain {
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(ctx)
		cancels = append(cancels, cancel)
		// A drain beginning must cut blocked enqueue waits short: without
		// this, Drain's settle barrier would wait out every in-flight
		// client deadline before the queue could close.
		go func(done <-chan struct{}) {
			select {
			case <-s.life.DrainBegun():
				cancel()
			case <-done:
			}
		}(ctx.Done())
	}
	return ctx, func() {
		for _, c := range cancels {
			c()
		}
	}
}

// handleEnqueue is the accept path. Order matters: the lifecycle and the
// shedder are consulted before anything touches the queue, so a stalled
// queue's rejects cost one atomic load each instead of a reservation
// attempt on the contended item account.
func (s *Server) handleEnqueue(w http.ResponseWriter, r *http.Request) {
	s.ctrs.EnqueueRequests.Add(1)
	var req resilience.EnqueueRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.ctrs.BadRequests.Add(1)
		writeErr(w, http.StatusBadRequest, resilience.ErrTokenBadRequest, err.Error(), 0)
		return
	}
	if len(req.Values) == 0 || len(req.Values) > s.cfg.MaxBatch {
		s.ctrs.BadRequests.Add(1)
		writeErr(w, http.StatusBadRequest, resilience.ErrTokenBadRequest,
			fmt.Sprintf("values must hold 1..%d entries", s.cfg.MaxBatch), 0)
		return
	}
	for _, v := range req.Values {
		if v == lcrq.Reserved {
			s.ctrs.BadRequests.Add(1)
			writeErr(w, http.StatusBadRequest, resilience.ErrTokenBadRequest, "reserved value", 0)
			return
		}
	}

	var traceID uint64
	traced := req.TraceID != ""
	if traced {
		id, err := resilience.ParseTraceID(req.TraceID)
		if err != nil {
			s.ctrs.BadRequests.Add(1)
			writeErr(w, http.StatusBadRequest, resilience.ErrTokenBadRequest, "bad trace_id: "+err.Error(), 0)
			return
		}
		traceID = id
	}

	// Idempotent replay: a key we already executed answers from the
	// record, touching nothing. The replayed accept already deposited its
	// stamp, so the echo keeps the trace identity without re-stamping.
	if out, ok := s.dedup.Seen(req.IdempotencyKey); ok {
		s.ctrs.IdempotentHits.Add(1)
		resp := resilience.EnqueueResponse{Accepted: out.Accepted}
		if traced && out.Accepted > 0 {
			resp.TraceID = req.TraceID
		}
		writeJSON(w, out.Status, resp)
		return
	}

	// Admission: drain state, then shedder — both before the hot path.
	s.enqGate.RLock()
	defer s.enqGate.RUnlock()
	if s.life.State() != resilience.Serving {
		s.ctrs.ClosedRejects.Add(1)
		writeErr(w, http.StatusServiceUnavailable, resilience.ErrTokenDraining, "server is draining", 0)
		return
	}
	if s.shed.Shedding() {
		s.ctrs.ShedRejects.Add(1)
		ra := s.rate.RetryAfter(s.lastDepth.Load())
		w.Header().Set("X-Load-Shed", "1")
		writeRetryErr(w, resilience.ErrTokenShedding, "admission controller open: "+s.shed.State().Verdict, ra)
		return
	}

	ctx, cancel := s.reqContext(r, req.TimeoutMs, true)
	defer cancel()
	accepted, err := s.enqueue(ctx, req.Values, req.TimeoutMs > 0, traceID, traced)
	if accepted > 0 {
		s.ctrs.ItemsAccepted.Add(uint64(accepted))
		if traced {
			s.ctrs.TracedAccepts.Add(1)
		}
	}
	echo := ""
	if traced && accepted > 0 {
		echo = req.TraceID
	}
	status := s.enqueueStatus(w, r, accepted, err, echo)
	// Record only executions with side effects: replaying a 0-accepted
	// failure re-executes harmlessly, but replaying an accept must not
	// enqueue twice.
	if accepted > 0 {
		s.dedup.Record(req.IdempotencyKey, resilience.DedupOutcome{Accepted: accepted, Status: status})
	}
}

// enqueue admits as much of vs as budget and the deadline allow: batch
// reservations while there is budget, one EnqueueWait on the next value
// when there is not (it blocks until budget frees, the queue closes, or
// ctx ends), then back to batching. Without wait (timeout_ms 0) a full
// queue reports ErrFull after the single batch attempt.
//
// When traced, the first value to land carries an item trace of identity
// traceID (one stamp per request, mirroring the queue's one-trace-per-
// operation rule); once any value is in, the remainder proceeds untraced.
func (s *Server) enqueue(ctx context.Context, vs []uint64, wait bool, traceID uint64, traced bool) (accepted int, err error) {
	for accepted < len(vs) {
		var n int
		var berr error
		if traced && accepted == 0 {
			n, berr = s.q.EnqueueBatchTraced(vs, traceID)
		} else {
			n, berr = s.q.EnqueueBatch(vs[accepted:])
		}
		accepted += n
		if accepted == len(vs) {
			return accepted, nil
		}
		if errors.Is(berr, lcrq.ErrClosed) || !wait {
			return accepted, berr
		}
		// Full. Wait for budget via the single-value path, which carries
		// the backoff and the taxonomy (ErrFull+ctx wrapped on expiry).
		var werr error
		if traced && accepted == 0 {
			werr = s.q.EnqueueWaitTraced(ctx, vs[0], traceID)
		} else {
			werr = s.q.EnqueueWait(ctx, vs[accepted])
		}
		if werr != nil {
			return accepted, werr
		}
		accepted++
	}
	return accepted, nil
}

// enqueueStatus maps the outcome onto the wire and reports the status used.
func (s *Server) enqueueStatus(w http.ResponseWriter, r *http.Request, accepted int, err error, traceID string) int {
	switch {
	case err == nil, accepted > 0:
		// Full or partial accept: the client learns how many leading
		// values are in; the remainder is safely resendable.
		writeJSON(w, http.StatusOK, resilience.EnqueueResponse{Accepted: accepted, TraceID: traceID})
		return http.StatusOK
	case errors.Is(err, lcrq.ErrClosed), s.life.State() != resilience.Serving:
		// Closed, or the wait was cut short by a drain beginning.
		s.ctrs.ClosedRejects.Add(1)
		writeErr(w, http.StatusServiceUnavailable, resilience.ErrTokenDraining, "queue closed to new work", 0)
		return http.StatusServiceUnavailable
	case r.Context().Err() != nil:
		// The client went away; nothing was admitted.
		s.ctrs.ClientCancels.Add(1)
		writeErr(w, resilience.StatusClientClosedRequest, resilience.ErrTokenCanceled, "client closed request", 0)
		return resilience.StatusClientClosedRequest
	case errors.Is(err, lcrq.ErrFull):
		// Full for the whole deadline: backpressure, with a drain-rate
		// derived hint for when budget should exist.
		s.ctrs.FullRejects.Add(1)
		writeRetryErr(w, resilience.ErrTokenFull, "queue full for the whole deadline",
			s.rate.RetryAfter(s.lastDepth.Load()))
		return http.StatusTooManyRequests
	default:
		// Deadline expired outside the full path (should not happen for
		// enqueues, but the mapping must be total).
		s.ctrs.DeadlineExpiry.Add(1)
		writeErr(w, http.StatusGatewayTimeout, resilience.ErrTokenDeadline, err.Error(), 0)
		return http.StatusGatewayTimeout
	}
}

// handleDequeue is the delivery path. Dequeues are served through a drain
// (they are the drain), and are never shed — shedding delivery would hold
// the very items whose drain recovery the shedder is waiting for.
func (s *Server) handleDequeue(w http.ResponseWriter, r *http.Request) {
	s.ctrs.DequeueRequests.Add(1)
	var req resilience.DequeueRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.ctrs.BadRequests.Add(1)
		writeErr(w, http.StatusBadRequest, resilience.ErrTokenBadRequest, err.Error(), 0)
		return
	}
	limit := req.Max
	if limit <= 0 {
		limit = 1
	}
	if limit > s.cfg.MaxBatch {
		limit = s.cfg.MaxBatch
	}
	if s.life.State() == resilience.Closed {
		s.ctrs.ClosedRejects.Add(1)
		writeErr(w, http.StatusServiceUnavailable, resilience.ErrTokenClosed, "server closed", 0)
		return
	}

	ctx, cancel := s.reqContext(r, req.WaitMs, false)
	defer cancel()
	out := make([]uint64, limit)
	// Closed is read before the poll: observing (closed, then empty) in
	// that order proves the queue is drained for good, as in DequeueWait.
	closed := s.q.Closed()
	n, hits := s.q.DequeueBatchTraced(out)
	if n == 0 && req.WaitMs <= 0 && closed {
		s.ctrs.ClosedRejects.Add(1)
		writeErr(w, http.StatusServiceUnavailable, resilience.ErrTokenClosed, "queue closed and drained", 0)
		return
	}
	if n == 0 && req.WaitMs > 0 {
		v, waitHits, err := s.q.DequeueWaitTraced(ctx)
		switch {
		case err == nil:
			out[0] = v
			var tailHits []lcrq.ItemTrace
			n, tailHits = s.q.DequeueBatchTraced(out[1:])
			n++
			// Reindex the tail batch's positions past the waited value.
			for i := range tailHits {
				tailHits[i].Pos++
			}
			hits = append(waitHits, tailHits...)
		case errors.Is(err, lcrq.ErrClosed):
			// Closed AND drained: terminal — no value is ever coming.
			s.ctrs.ClosedRejects.Add(1)
			writeErr(w, http.StatusServiceUnavailable, resilience.ErrTokenClosed, "queue closed and drained", 0)
			return
		case r.Context().Err() != nil:
			s.ctrs.ClientCancels.Add(1)
			writeErr(w, resilience.StatusClientClosedRequest, resilience.ErrTokenCanceled, "client closed request", 0)
			return
		default:
			// Empty for the whole wait: the long-poll timed out.
			s.ctrs.DeadlineExpiry.Add(1)
			writeErr(w, http.StatusGatewayTimeout, resilience.ErrTokenDeadline, "queue empty for the whole wait", 0)
			return
		}
	}
	if n > 0 {
		s.ctrs.ItemsDelivered.Add(uint64(n))
		if s.life.State() != resilience.Serving {
			s.ctrs.DrainedItems.Add(uint64(n))
		}
	}
	resp := resilience.DequeueResponse{Values: out[:n]}
	if len(hits) > 0 {
		s.ctrs.TracedDeliveries.Add(uint64(len(hits)))
		resp.Traces = make([]resilience.WireTrace, len(hits))
		for i, h := range hits {
			resp.Traces[i] = resilience.WireTrace{
				ID:               resilience.FormatTraceID(h.ID),
				Pos:              h.Pos,
				EnqueuedAtUnixNs: h.EnqueuedAt.UnixNano(),
				SojournNs:        h.Sojourn.Nanoseconds(),
			}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleHealthz answers load-balancer checks: 200 while serving (shedding
// included — delivery still works), 503 once draining, so the balancer
// routes new traffic away while existing consumers finish the drain.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	st := s.life.State()
	code := http.StatusOK
	if st != resilience.Serving {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"state":    st.String(),
		"shed":     s.shed.State(),
		"health":   s.q.Health(),
		"depth":    s.lastDepth.Load(),
		"drainsec": s.rate.PerSecond(),
	})
}

// handleStatsz serves the full observability snapshot as JSON: build
// provenance (commit, GOMAXPROCS, collection timestamp), lifecycle, shed
// state, queue health, the server's counter ledger, operation latency and
// item-sojourn summaries, and the tail of the queue's event trace
// (watchdog-alert / watchdog-recover included, so a harness can verify the
// shed/recover sequence without scraping text). cmd/qtop renders this
// endpoint live.
func (s *Server) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	m := s.q.Metrics()
	evs := s.q.Events()
	type ev struct {
		Seq  uint64 `json:"seq"`
		Kind string `json:"kind"`
	}
	tail := make([]ev, 0, len(evs))
	for _, e := range evs {
		tail = append(tail, ev{Seq: e.Seq, Kind: e.Kind})
	}
	lat := func(l lcrq.LatencySummary) map[string]any {
		return map[string]any{
			"samples": l.Samples,
			"mean_ns": l.Mean.Nanoseconds(),
			"p50_ns":  l.P50.Nanoseconds(),
			"p99_ns":  l.P99.Nanoseconds(),
			"p999_ns": l.P999.Nanoseconds(),
			"max_ns":  l.Max.Nanoseconds(),
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"build":       s.build,
		"state":       s.life.State().String(),
		"shed":        s.shed.State(),
		"health":      m.Health,
		"counters":    s.ctrs.Snapshot(),
		"depth":       m.Depth,
		"items":       m.Items,
		"capacity":    m.Capacity,
		"drain_rate":  s.rate.PerSecond(),
		"ring_events": m.RingEvents,
		"events":      tail,
		"stats": map[string]any{
			"enqueues":   m.Stats.Enqueues,
			"dequeues":   m.Stats.Dequeues,
			"empty":      m.Stats.Empty,
			"trace_arms": m.Stats.TraceArms,
			"trace_hits": m.Stats.TraceHits,
		},
		"latency": map[string]any{
			"enqueue":      lat(m.Enqueue),
			"dequeue":      lat(m.Dequeue),
			"dequeue_wait": lat(m.DequeueWait),
			"enqueue_wait": lat(m.EnqueueWait),
		},
		"sojourn":        lat(m.Sojourn),
		"trace_sample_n": m.TraceSampleN,
	})
}

// metricsHandler serves the queue's Prometheus series and the server's own
// on one scrape, plus lifecycle/shed gauges.
func (s *Server) metricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		lcrq.WritePrometheus(w, s.q.Metrics())
		s.ctrs.WritePrometheus(w)
		shed := int64(0)
		if s.shed.Shedding() {
			shed = 1
		}
		fmt.Fprintf(w, "# HELP lcrq_qserve_shedding 1 while the admission controller rejects enqueues.\n# TYPE lcrq_qserve_shedding gauge\nlcrq_qserve_shedding %d\n", shed)
		fmt.Fprintf(w, "# HELP lcrq_qserve_state Lifecycle state by name (value 1 on the current one).\n# TYPE lcrq_qserve_state gauge\nlcrq_qserve_state{state=%q} 1\n", s.life.State().String())
	})
}

// handleAdminDrain is the wire drain entrypoint (the SIGTERM analog for
// orchestrators that would rather POST than signal). It begins the drain
// and returns immediately; /healthz flips to 503 and the drain proceeds
// in the background with the configured deadline.
func (s *Server) handleAdminDrain(w http.ResponseWriter, _ *http.Request) {
	go s.Drain(context.Background())
	writeJSON(w, http.StatusAccepted, map[string]string{"state": "draining"})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, token, detail string, retryAfter time.Duration) {
	if retryAfter > 0 {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int64(retryAfter.Seconds())))
	}
	resp := resilience.ErrorResponse{Error: token, Detail: detail}
	if retryAfter > 0 {
		resp.RetryAfterSec = int64(retryAfter.Seconds())
	}
	writeJSON(w, status, resp)
}

func writeRetryErr(w http.ResponseWriter, token, detail string, retryAfter time.Duration) {
	writeErr(w, http.StatusTooManyRequests, token, detail, retryAfter)
}
