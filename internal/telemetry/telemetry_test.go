package telemetry

import (
	"sync"
	"testing"
	"time"

	"lcrq/internal/core"
	"lcrq/internal/instrument"
)

func TestCounterAggregation(t *testing.T) {
	s := New(0, 0)
	var c1, c2 instrument.Counters
	r1 := s.Register(&c1)
	r2 := s.Register(&c2)

	c1.Enqueues = 10
	c1.FetchAdds = 20
	c2.Dequeues = 5
	r1.Flush()
	r2.Flush()

	snap := s.Snapshot()
	if snap.Handles != 2 {
		t.Fatalf("Handles = %d, want 2", snap.Handles)
	}
	if snap.Counters.Enqueues != 10 || snap.Counters.Dequeues != 5 || snap.Counters.FetchAdds != 20 {
		t.Fatalf("aggregate = %+v", snap.Counters)
	}

	// Unregistering folds the final values into the retired sum.
	c1.Enqueues = 17
	s.Unregister(r1)
	snap = s.Snapshot()
	if snap.Handles != 1 {
		t.Fatalf("Handles after unregister = %d, want 1", snap.Handles)
	}
	if snap.Counters.Enqueues != 17 {
		t.Fatalf("retired enqueues = %d, want 17", snap.Counters.Enqueues)
	}
}

func TestTickPublishesAtInterval(t *testing.T) {
	s := New(0, 0)
	var c instrument.Counters
	r := s.Register(&c)
	for i := 0; i < publishInterval-1; i++ {
		c.Enqueues++
		r.Tick()
	}
	if got := s.Snapshot().Counters.Enqueues; got != 0 {
		t.Fatalf("published before interval: %d", got)
	}
	c.Enqueues++
	r.Tick()
	if got := s.Snapshot().Counters.Enqueues; got != publishInterval {
		t.Fatalf("after interval: %d, want %d", got, publishInterval)
	}
}

func TestArmStride(t *testing.T) {
	s := New(8, 0)
	var c instrument.Counters
	r := s.Register(&c)
	hits := 0
	for i := 0; i < 8000; i++ {
		if r.Arm() {
			hits++
		}
	}
	if hits != 1000 {
		t.Fatalf("Arm hits = %d over 8000 ops at 1-in-8, want 1000", hits)
	}
	// Sampling disabled: never arms.
	off := New(0, 0)
	ro := off.Register(&c)
	for i := 0; i < 100; i++ {
		if ro.Arm() {
			t.Fatal("Arm fired with sampling disabled")
		}
	}
}

func TestLatencyQuantiles(t *testing.T) {
	s := New(1, 0)
	var c instrument.Counters
	r := s.Register(&c)
	for i := 1; i <= 1000; i++ {
		r.Lat(KindEnqueue, time.Duration(i)*time.Microsecond)
	}
	snap := s.Snapshot()
	lat := snap.Latency[KindEnqueue]
	if lat.Samples != 1000 {
		t.Fatalf("Samples = %d", lat.Samples)
	}
	if lat.MaxNs != int64(1000*time.Microsecond) {
		t.Fatalf("MaxNs = %d", lat.MaxNs)
	}
	p50 := time.Duration(lat.P50Ns)
	if p50 < 450*time.Microsecond || p50 > 550*time.Microsecond {
		t.Fatalf("P50 = %v, want ≈500µs", p50)
	}
	if lat.P99Ns < lat.P50Ns || lat.P999Ns < lat.P99Ns {
		t.Fatalf("quantiles not ordered: %+v", lat)
	}
	if snap.Latency[KindDequeue].Samples != 0 {
		t.Fatal("dequeue series polluted")
	}
}

func TestRingEventTallyAndTrace(t *testing.T) {
	s := New(0, 16)
	s.RingEvent(core.EvRingAppend)
	s.RingEvent(core.EvRingAppend)
	s.RingEvent(core.EvRingTantrum)
	snap := s.Snapshot()
	if snap.EventCounts[core.EvRingAppend] != 2 || snap.EventCounts[core.EvRingTantrum] != 1 {
		t.Fatalf("event counts = %v", snap.EventCounts)
	}
	evs := s.Events()
	if len(evs) != 3 {
		t.Fatalf("trace length = %d, want 3", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("trace not in sequence order: %+v", evs)
		}
	}
	if evs[2].Kind != core.EvRingTantrum {
		t.Fatalf("last event = %v, want tantrum", evs[2].Kind)
	}
	if d := time.Since(evs[0].Time); d < 0 || d > time.Minute {
		t.Fatalf("event timestamp implausible: %v ago", d)
	}
}

func TestEventRingWrapKeepsNewest(t *testing.T) {
	s := New(0, 8)
	for i := 0; i < 100; i++ {
		s.RingEvent(core.EvRingClose)
	}
	evs := s.Events()
	if len(evs) != 8 {
		t.Fatalf("trace length after wrap = %d, want 8", len(evs))
	}
	if evs[0].Seq != 92 || evs[7].Seq != 99 {
		t.Fatalf("trace kept wrong window: first=%d last=%d", evs[0].Seq, evs[7].Seq)
	}
}

func TestConcurrentEventsAndSnapshots(t *testing.T) {
	// Hammer the ring and counters from several goroutines while two
	// readers snapshot continuously; the race detector is the oracle.
	s := New(4, 32)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var c instrument.Counters
			r := s.Register(&c)
			defer s.Unregister(r)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Enqueues++
				if r.Arm() {
					r.Lat(KindEnqueue, time.Duration(i%1000))
				}
				r.Tick()
				if i%64 == 0 {
					s.RingEvent(core.RingEvent(i % int(core.NumRingEvents)))
				}
			}
		}(w)
	}
	for rd := 0; rd < 2; rd++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			deadline := time.Now().Add(200 * time.Millisecond)
			for time.Now().Before(deadline) {
				snap := s.Snapshot()
				if snap.Handles > 4 {
					t.Errorf("Handles = %d", snap.Handles)
					return
				}
				evs := s.Events()
				for i := 1; i < len(evs); i++ {
					if evs[i].Seq <= evs[i-1].Seq {
						t.Errorf("trace out of order")
						return
					}
				}
			}
		}()
	}
	time.Sleep(220 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestSnapshotMonotoneAcrossRetirement is the regression test for the
// retire-fold seqlock: a Snapshot racing an Unregister used to read the new
// retired sum together with the stale live list, count the retiring handle
// twice, and make the monotone aggregate appear to run backwards on the
// next scrape. The retireMidFold hook parks the writer exactly inside the
// inconsistent window while a concurrent reader snapshots — deterministic,
// because the organic window is a few instructions wide and essentially
// unhittable on one CPU.
func TestSnapshotMonotoneAcrossRetirement(t *testing.T) {
	s := New(0, 0)
	var c instrument.Counters
	r := s.Register(&c)
	c.Enqueues = 1000
	r.Flush()

	inWindow := make(chan struct{})
	release := make(chan struct{})
	retireMidFold = func() {
		close(inWindow)
		<-release
	}
	defer func() { retireMidFold = nil }()

	got := make(chan uint64, 1)
	go s.Unregister(r)
	<-inWindow
	go func() { got <- s.Snapshot().Counters.Enqueues }()
	// Give the reader time to enter Snapshot while the fold is parked; the
	// seqlock must hold it until the fold completes.
	select {
	case n := <-got:
		t.Fatalf("Snapshot returned mid-fold: enqueues = %d (double-counted)", n)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if n := <-got; n != 1000 {
		t.Fatalf("post-fold enqueues = %d, want 1000", n)
	}
}

// TestSnapshotMonotoneStress is the stochastic companion: handles churn as
// fast as possible while a reader asserts the enqueue total never decreases.
func TestSnapshotMonotoneStress(t *testing.T) {
	s := New(0, 0)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var c instrument.Counters
			r := s.Register(&c)
			c.Enqueues = 1000
			r.Flush()
			s.Unregister(r)
		}
	}()

	var last uint64
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		got := s.Snapshot().Counters.Enqueues
		if got < last {
			close(stop)
			wg.Wait()
			t.Fatalf("aggregate enqueues went backwards: %d -> %d", last, got)
		}
		last = got
	}
	close(stop)
	wg.Wait()
}
