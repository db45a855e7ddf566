// Package resilience houses the reusable wire-level policy pieces of the
// queue-as-a-service front end (cmd/qserve): load shedding driven by the
// queue's watchdog verdicts, drain-rate estimation for Retry-After hints,
// the serving→draining→closed lifecycle, an idempotency cache that makes
// batch retries safe, and the server-side operation counters.
//
// The pieces are deliberately queue-agnostic — they consume the public
// surface (Health verdicts, Metrics counters) rather than internal state —
// so they compose with any backend that exposes the same signals.
package resilience

import (
	"sync"
	"sync/atomic"
	"time"
)

// DefaultShedVerdicts are the watchdog problem verdicts that indicate new
// enqueues cannot make progress and should be rejected before they touch
// the hot path: a capacity-stalled queue will reject them anyway (after
// burning a reservation attempt), and an append-livelocked queue would only
// deepen the livelock. The remaining verdict (tantrum-storm) describes
// internal churn the queue still absorbs, so traffic keeps flowing
// through it.
var DefaultShedVerdicts = []string{"capacity-stall", "append-livelock"}

// ShedConfig configures a Shedder.
type ShedConfig struct {
	// Verdicts lists the health verdicts that open the shedder (reject new
	// work). Empty selects DefaultShedVerdicts.
	Verdicts []string
	// RecoverObservations is how many consecutive healthy observations
	// must arrive before an open shedder closes again — hysteresis on top
	// of the watchdog's own, so a verdict flickering at the detection
	// threshold cannot flap the admission decision. 0 selects 2.
	RecoverObservations int
}

// A Shedder is the admission controller of the front end: it folds a
// stream of health observations into a single shed/admit bit that the
// request path reads with one atomic load. It opens (sheds) the moment an
// observation carries a configured problem verdict and closes only after
// RecoverObservations consecutive healthy ones, so the decision inherits
// the watchdog's detection latency but never its sampling noise.
type Shedder struct {
	verdicts map[string]bool
	recover  int

	shedding atomic.Bool // the request-path bit: true = reject new work

	mu       sync.Mutex
	okStreak int
	verdict  string    // problem verdict that opened the shedder
	since    time.Time // when it opened
	opens    atomic.Uint64
}

// NewShedder returns a closed (admitting) shedder.
func NewShedder(cfg ShedConfig) *Shedder {
	vs := cfg.Verdicts
	if len(vs) == 0 {
		vs = DefaultShedVerdicts
	}
	s := &Shedder{verdicts: make(map[string]bool, len(vs)), recover: cfg.RecoverObservations}
	for _, v := range vs {
		s.verdicts[v] = true
	}
	if s.recover <= 0 {
		s.recover = 2
	}
	return s
}

// Observe feeds one health observation (ok plus the verdict string, as
// reported by Queue.Health). Safe for concurrent use, though a single
// polling goroutine is the intended caller.
func (s *Shedder) Observe(ok bool, verdict string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	problem := !ok && s.verdicts[verdict]
	switch {
	case problem:
		s.okStreak = 0
		if !s.shedding.Load() {
			s.verdict = verdict
			s.since = time.Now()
			s.opens.Add(1)
			s.shedding.Store(true)
		}
	case s.shedding.Load():
		// Any non-shedding observation — healthy or a problem verdict we
		// don't shed on — counts toward recovery.
		s.okStreak++
		if s.okStreak >= s.recover {
			s.okStreak = 0
			s.shedding.Store(false)
		}
	}
}

// Shedding reports whether new work should be rejected. One atomic load;
// this is the request-path call.
func (s *Shedder) Shedding() bool { return s.shedding.Load() }

// State describes the shedder for health endpoints.
type ShedState struct {
	Shedding bool      `json:"shedding"`
	Verdict  string    `json:"verdict,omitempty"` // verdict that opened it (last one, once closed)
	Since    time.Time `json:"since,omitempty"`   // when it opened
	Opens    uint64    `json:"opens"`             // lifetime admit→shed transitions
}

// State returns a snapshot for health/debug endpoints.
func (s *Shedder) State() ShedState {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := ShedState{Shedding: s.shedding.Load(), Opens: s.opens.Load()}
	if st.Shedding {
		st.Verdict, st.Since = s.verdict, s.since
	}
	return st
}
