// Package flightrec is the queue's black-box flight recorder: an always-on,
// bounded, low-cadence observer that keeps the last few minutes of queue
// state in memory so the moments *before* an incident are reconstructable
// after it. Telemetry answers "what is happening"; the flight recorder
// answers "what was happening when it went wrong" — from a process that may
// already be unhealthy, wedged, or about to die.
//
// Design constraints, in order:
//
//   - Always on: recording must be cheap enough to never turn off. One
//     Metrics() snapshot per interval (default 1s) into a fixed ring of
//     frames — no allocation growth, no I/O, nothing on any operation path.
//   - Bounded: the ring holds a fixed number of frames (default 120 ≈ two
//     minutes); older frames are overwritten. A dump is a bounded JSON
//     document no matter how long the process ran.
//   - Self-describing: every dump embeds internal/buildmeta provenance
//     (commit, GOMAXPROCS, timestamp), the trigger reason, and per-frame
//     counter deltas, health verdicts, latency/sojourn quantiles, and the
//     queue's event-ring tail — enough to diagnose without the process.
//
// Triggers: an explicit Snapshot/WriteFile call (SIGQUIT handlers, panic
// paths), the watchdog's ok→alert edge (automatic, once per edge, when a
// dump directory is configured), and GET /admin/blackbox via Handler.
package flightrec

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"lcrq"
	"lcrq/internal/buildmeta"
)

// DefaultInterval is the frame capture cadence.
const DefaultInterval = time.Second

// DefaultFrames is the default ring capacity (two minutes at the default
// cadence).
const DefaultFrames = 120

// Config configures a Recorder. Queue is required.
type Config struct {
	// Queue to observe.
	Queue *lcrq.Queue
	// Interval between frames (default 1s).
	Interval time.Duration
	// Frames is the ring capacity (default 120).
	Frames int
	// Dir, when set, enables automatic dumps: the watchdog's ok→alert edge
	// writes a dump file here (once per edge). Explicit WriteFile calls also
	// land here.
	Dir string
	// Extra, when set, is invoked at dump time and its result embedded in
	// the dump — cmd/qserve passes the server's wire-counter snapshot.
	Extra func() map[string]any
	// Logf, when set, receives one line per automatic dump.
	Logf func(format string, args ...any)
}

// Frame is one periodic observation. Counter fields are deltas since the
// previous frame (rates, effectively, over one interval); gauges and
// quantiles are point-in-time.
//
//lcrq:publish
type Frame struct {
	At time.Time `json:"at"`

	// Gauges.
	Depth   int64 `json:"depth"`
	Items   int64 `json:"items,omitempty"`
	Handles int   `json:"handles"`

	// Watchdog verdict at capture time.
	HealthOK bool   `json:"health_ok"`
	Verdict  string `json:"verdict,omitempty"`

	// Counter deltas over the interval.
	Enqueues        uint64 `json:"enqueues"`
	Dequeues        uint64 `json:"dequeues"`
	Empty           uint64 `json:"empty"`
	RingCloses      uint64 `json:"ring_closes,omitempty"`
	RingAppends     uint64 `json:"ring_appends,omitempty"`
	CapacityRejects uint64 `json:"capacity_rejects,omitempty"`
	TraceHits       uint64 `json:"trace_hits,omitempty"`

	// Latency and sojourn quantiles (cumulative distributions, read at
	// capture time).
	EnqueueP99Ns int64 `json:"enqueue_p99_ns,omitempty"`
	DequeueP99Ns int64 `json:"dequeue_p99_ns,omitempty"`
	SojournP50Ns int64 `json:"sojourn_p50_ns,omitempty"`
	SojournP99Ns int64 `json:"sojourn_p99_ns,omitempty"`
}

// Dump is the flight recorder's output document.
//
//lcrq:publish
type Dump struct {
	// Meta stamps which build produced this dump, on how many processors,
	// and when — a dump without provenance is guesswork.
	Meta buildmeta.Meta `json:"meta"`
	// Reason names the trigger: "sigquit", "watchdog-alert", "panic",
	// "http", or whatever the caller passed.
	Reason   string    `json:"reason"`
	DumpedAt time.Time `json:"dumped_at"`
	// IntervalMs is the frame cadence, so readers can turn deltas into rates.
	IntervalMs int64 `json:"interval_ms"`
	// Frames, oldest first — the recorded window leading up to the dump.
	Frames []Frame `json:"frames"`
	// Events is the queue's ring-lifecycle event tail (watchdog alerts
	// included) at dump time.
	Events []lcrq.Event `json:"events,omitempty"`
	// Extra is the Config.Extra payload (e.g. qserve's wire counters).
	Extra map[string]any `json:"extra,omitempty"`
}

// Recorder is the running flight recorder. Create with New, Stop on the way
// out.
type Recorder struct {
	cfg Config

	mu     sync.Mutex
	frames []Frame // fixed-capacity ring
	next   int     // ring cursor
	full   bool    // the ring has wrapped
	prev   lcrq.Metrics
	seeded bool // prev holds a real baseline
	lastOK bool // health at the previous tick, for edge detection

	alertDumps atomic.Uint64 // automatic watchdog-alert dumps written
	stop       chan struct{}
	stopOnce   sync.Once
	done       chan struct{}
}

// New starts a Recorder observing cfg.Queue.
func New(cfg Config) *Recorder {
	if cfg.Queue == nil {
		panic("flightrec.New: Config.Queue is required")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.Frames <= 0 {
		cfg.Frames = DefaultFrames
	}
	r := &Recorder{
		cfg:    cfg,
		frames: make([]Frame, cfg.Frames),
		lastOK: true,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	// Capture a synchronous baseline frame so the counter deltas are seeded
	// at construction: everything that happens after New is attributed to a
	// frame, even when a burst completes before the first tick.
	r.capture()
	go r.run()
	return r
}

// Stop halts frame capture. Snapshot and the dump entry points keep working
// on the recorded window.
func (r *Recorder) Stop() {
	r.stopOnce.Do(func() { close(r.stop) })
	<-r.done
}

// AlertDumps reports how many automatic watchdog-alert dumps were written.
func (r *Recorder) AlertDumps() uint64 { return r.alertDumps.Load() }

func (r *Recorder) run() {
	defer close(r.done)
	t := time.NewTicker(r.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			alerted := r.capture()
			if alerted && r.cfg.Dir != "" {
				path, err := r.WriteFile("watchdog-alert")
				if err != nil {
					r.logf("flightrec: watchdog-alert dump failed: %v", err)
				} else {
					r.alertDumps.Add(1)
					r.logf("flightrec: watchdog alert — dumped %s", path)
				}
			}
		}
	}
}

// capture appends one frame and reports whether the watchdog flipped
// ok→alert since the previous frame.
func (r *Recorder) capture() (alertEdge bool) {
	m := r.cfg.Queue.Metrics()
	f := Frame{
		At:       time.Now(),
		Depth:    m.Depth,
		Items:    m.Items,
		Handles:  m.Handles,
		HealthOK: m.Health.OK,
		Verdict:  m.Health.Verdict,

		EnqueueP99Ns: m.Enqueue.P99.Nanoseconds(),
		DequeueP99Ns: m.Dequeue.P99.Nanoseconds(),
		SojournP50Ns: m.Sojourn.P50.Nanoseconds(),
		SojournP99Ns: m.Sojourn.P99.Nanoseconds(),
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seeded {
		f.Enqueues = m.Stats.Enqueues - r.prev.Stats.Enqueues
		f.Dequeues = m.Stats.Dequeues - r.prev.Stats.Dequeues
		f.Empty = m.Stats.Empty - r.prev.Stats.Empty
		f.RingCloses = m.Stats.RingCloses - r.prev.Stats.RingCloses
		f.RingAppends = m.Stats.RingAppends - r.prev.Stats.RingAppends
		f.TraceHits = m.Stats.TraceHits - r.prev.Stats.TraceHits
		f.CapacityRejects = m.CapacityRejects - r.prev.CapacityRejects
	}
	r.prev = m
	r.seeded = true

	r.frames[r.next] = f
	r.next = (r.next + 1) % len(r.frames)
	if r.next == 0 {
		r.full = true
	}

	alertEdge = r.lastOK && !m.Health.OK
	r.lastOK = m.Health.OK
	return alertEdge
}

// Snapshot assembles a dump of the recorded window, oldest frame first.
// Safe to call at any time, including after Stop and from signal or panic
// handlers.
func (r *Recorder) Snapshot(reason string) Dump {
	d := Dump{
		Meta:       buildmeta.Collect(),
		Reason:     reason,
		DumpedAt:   time.Now(),
		IntervalMs: r.cfg.Interval.Milliseconds(),
		Events:     r.cfg.Queue.Events(),
	}
	r.mu.Lock()
	if r.full {
		d.Frames = append(d.Frames, r.frames[r.next:]...)
		d.Frames = append(d.Frames, r.frames[:r.next]...)
	} else {
		d.Frames = append(d.Frames, r.frames[:r.next]...)
	}
	r.mu.Unlock()
	if r.cfg.Extra != nil {
		d.Extra = r.cfg.Extra()
	}
	return d
}

// WriteTo writes the dump as indented JSON.
func (d Dump) WriteTo(w interface{ Write([]byte) (int, error) }) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// WriteFile writes a dump to the configured directory (or the working
// directory when none was configured) and returns its path. Filenames are
// blackbox-<reason>-<unix-nanos>.json — unique per trigger, sortable by
// time.
func (r *Recorder) WriteFile(reason string) (string, error) {
	dir := r.cfg.Dir
	if dir == "" {
		dir = "."
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	d := r.Snapshot(reason)
	path := filepath.Join(dir, fmt.Sprintf("blackbox-%s-%d.json", reason, d.DumpedAt.UnixNano()))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := d.WriteTo(f); err != nil {
		f.Close()
		return path, err
	}
	return path, f.Close()
}

// CapturePanic is a deferred panic trigger: when the calling goroutine is
// panicking, it writes a "panic" dump (best effort) and re-panics so the
// crash proceeds normally with the dump on disk.
//
//	defer rec.CapturePanic()
func (r *Recorder) CapturePanic() {
	if p := recover(); p != nil {
		if path, err := r.WriteFile("panic"); err == nil {
			r.logf("flightrec: panic — dumped %s", path)
		}
		panic(p)
	}
}

// Handler serves the current dump as JSON — the live /admin/blackbox
// endpoint.
func (r *Recorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = r.Snapshot("http").WriteTo(w)
	})
}

func (r *Recorder) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}
