package flightrec

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"lcrq"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestFramesAndDeltas: the recorder captures frames at its cadence and the
// per-frame counter deltas sum back to the queue's cumulative totals.
func TestFramesAndDeltas(t *testing.T) {
	q := lcrq.New(lcrq.WithTracing(1))
	defer q.Close()
	// A ring deep enough that the burst's frames cannot be evicted while the
	// convergence poll below runs (4096 × 2ms ≈ 8s of window).
	r := New(Config{Queue: q, Interval: 2 * time.Millisecond, Frames: 4096})
	defer r.Stop()

	// Telemetry publishes per-handle counters every 256 ops, so drive well
	// past one publication interval and then compare the frame-delta sums
	// against the queue's own published cumulative totals once quiescent.
	const burst = 2048
	for i := 0; i < burst; i++ {
		q.Enqueue(uint64(i))
	}
	for i := 0; i < burst; i++ {
		q.Dequeue()
	}
	sums := func() (enq, deq uint64) {
		for _, f := range r.Snapshot("test").Frames {
			enq += f.Enqueues
			deq += f.Dequeues
		}
		return
	}
	waitFor(t, 5*time.Second, func() bool {
		st := q.Metrics().Stats
		enq, deq := sums()
		return enq >= burst/2 && enq == st.Enqueues && deq == st.Dequeues
	}, "frame deltas to converge on the published totals")

	d := r.Snapshot("test")
	if d.Reason != "test" || d.IntervalMs != 2 {
		t.Fatalf("dump header = reason %q interval %d", d.Reason, d.IntervalMs)
	}
	for i, f := range d.Frames {
		if i > 0 && f.At.Before(d.Frames[i-1].At) {
			t.Fatalf("frames out of order at %d", i)
		}
		if !f.HealthOK {
			t.Fatalf("healthy queue reported unhealthy frame: %+v", f)
		}
	}
	if d.Frames[len(d.Frames)-1].SojournP50Ns <= 0 {
		t.Fatal("sojourn quantile missing despite 1-in-1 tracing")
	}
}

// TestCapacityRejectsDelta: CapacityRejects is a per-interval delta like
// the other counters, not the running total: rejections before a capture
// never reappear in a later frame.
func TestCapacityRejectsDelta(t *testing.T) {
	q := lcrq.New(lcrq.WithCapacity(1))
	defer q.Close()
	reject := func(n int) {
		for i := 0; i < n; i++ {
			if q.Enqueue(2) {
				t.Fatal("enqueue past capacity accepted")
			}
		}
	}
	if !q.Enqueue(1) {
		t.Fatal("first enqueue rejected")
	}
	reject(3) // before the baseline frame
	// An interval no test outlives: every frame after the baseline comes
	// from the explicit captures below.
	r := New(Config{Queue: q, Interval: time.Hour})
	defer r.Stop()
	reject(5)
	r.capture()
	reject(2)
	r.capture()

	var got []uint64
	for _, f := range r.Snapshot("test").Frames {
		got = append(got, f.CapacityRejects)
	}
	if len(got) != 3 || got[0] != 0 || got[1] != 5 || got[2] != 2 {
		t.Fatalf("per-frame CapacityRejects = %v, want [0 5 2]", got)
	}
}

// TestRingBounded: the frame ring wraps at its capacity — old frames are
// overwritten, the dump never grows past Frames entries, and order stays
// oldest-first across the wrap point.
func TestRingBounded(t *testing.T) {
	q := lcrq.New()
	defer q.Close()
	r := New(Config{Queue: q, Interval: time.Millisecond, Frames: 4})
	defer r.Stop()

	waitFor(t, 2*time.Second, func() bool {
		return len(r.Snapshot("test").Frames) == 4
	}, "the ring to fill")
	time.Sleep(10 * time.Millisecond) // several wraps past full
	d := r.Snapshot("test")
	if len(d.Frames) != 4 {
		t.Fatalf("frames = %d, want exactly 4 after wrapping", len(d.Frames))
	}
	for i := 1; i < len(d.Frames); i++ {
		if d.Frames[i].At.Before(d.Frames[i-1].At) {
			t.Fatalf("frames out of order across the wrap at %d", i)
		}
	}
}

// TestWriteFileMeta: a dump file is valid JSON carrying build provenance,
// the trigger reason, and the queue's event tail.
func TestWriteFileMeta(t *testing.T) {
	q := lcrq.New(lcrq.WithTelemetry())
	defer q.Close()
	r := New(Config{
		Queue:    q,
		Interval: time.Millisecond,
		Dir:      t.TempDir(),
		Extra:    func() map[string]any { return map[string]any{"answer": 42} },
	})
	defer r.Stop()
	q.Enqueue(1)
	waitFor(t, 2*time.Second, func() bool {
		return len(r.Snapshot("x").Frames) > 0
	}, "a first frame")

	path, err := r.WriteFile("sigquit")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var d Dump
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	if d.Meta.Commit == "" || d.Meta.GoMaxProcs < 1 || d.Meta.Timestamp == "" {
		t.Fatalf("build meta incomplete: %+v", d.Meta)
	}
	if d.Reason != "sigquit" || len(d.Frames) == 0 {
		t.Fatalf("dump = reason %q, %d frames", d.Reason, len(d.Frames))
	}
	if d.Extra["answer"] != float64(42) {
		t.Fatalf("extra payload = %v", d.Extra)
	}
}

// TestHandler: the /admin/blackbox handler serves the same dump over HTTP.
func TestHandler(t *testing.T) {
	q := lcrq.New(lcrq.WithTelemetry())
	defer q.Close()
	r := New(Config{Queue: q, Interval: time.Millisecond, Frames: 8})
	defer r.Stop()
	waitFor(t, 2*time.Second, func() bool {
		return len(r.Snapshot("x").Frames) > 0
	}, "a first frame")

	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/admin/blackbox", nil))
	if rec.Code != 200 || rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("handler: %d %s", rec.Code, rec.Header().Get("Content-Type"))
	}
	var d Dump
	if err := json.Unmarshal(rec.Body.Bytes(), &d); err != nil {
		t.Fatal(err)
	}
	if d.Reason != "http" || len(d.Frames) == 0 {
		t.Fatalf("handler dump = reason %q, %d frames", d.Reason, len(d.Frames))
	}
}

// TestCapturePanic: a panicking goroutine with a deferred CapturePanic
// leaves a "panic" dump on disk and still crashes (the panic propagates).
func TestCapturePanic(t *testing.T) {
	q := lcrq.New()
	defer q.Close()
	dir := t.TempDir()
	r := New(Config{Queue: q, Interval: time.Millisecond, Dir: dir})
	defer r.Stop()

	func() {
		defer func() {
			if recover() == nil {
				t.Error("CapturePanic swallowed the panic")
			}
		}()
		defer r.CapturePanic()
		panic("boom")
	}()

	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("dump dir after panic: %v, %v", ents, err)
	}
	if name := ents[0].Name(); len(name) < len("blackbox-panic-") || name[:15] != "blackbox-panic-" {
		t.Fatalf("dump file name = %q", name)
	}
}

// TestStopIdempotent: Stop twice is safe, and Snapshot keeps serving the
// recorded window afterwards.
func TestStopIdempotent(t *testing.T) {
	q := lcrq.New()
	defer q.Close()
	r := New(Config{Queue: q, Interval: time.Millisecond})
	waitFor(t, 2*time.Second, func() bool {
		return len(r.Snapshot("x").Frames) > 0
	}, "a first frame")
	r.Stop()
	r.Stop()
	if len(r.Snapshot("post-stop").Frames) == 0 {
		t.Fatal("recorded window lost after Stop")
	}
}
