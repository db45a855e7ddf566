package lcrq

import (
	"expvar"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sort"
)

// MetricsHandler returns an http.Handler that serves the queue's telemetry
// in the Prometheus text exposition format (version 0.0.4), with zero
// dependencies beyond the standard library. Mount it wherever the scraper
// looks, e.g.:
//
//	http.Handle("/metrics", q.MetricsHandler())
//
// Counter and latency series require WithTelemetry; the gauges
// (lcrq_queue_depth, lcrq_live_rings, lcrq_recycler_rings, lcrq_closed) are
// served regardless. Latencies are exported as summaries in seconds.
func (q *Queue) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePrometheus(w, q.Metrics())
	})
}

// WritePrometheus writes the metrics snapshot m to w in the Prometheus text
// exposition format (version 0.0.4). MetricsHandler uses it; servers that
// compose the queue's series with their own on one scrape endpoint (e.g.
// cmd/qserve appending its shed/drain/retry counters) call it directly.
func WritePrometheus(w io.Writer, m Metrics) { writeProm(w, m) }

// PublishExpvar publishes the queue's Metrics under the given name in the
// process-wide expvar registry (served at /debug/vars by the default mux).
// Each read of the variable takes a fresh snapshot. Like expvar.Publish it
// panics if the name is already registered, so give each queue its own.
func (q *Queue) PublishExpvar(name string) {
	expvar.Publish(name, expvar.Func(func() any { return q.Metrics() }))
}

func writeProm(b io.Writer, m Metrics) {
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}

	gauge("lcrq_queue_depth", "Approximate number of queued items (tail-head index delta).", m.Depth)
	gauge("lcrq_live_rings", "Ring segments currently linked in the queue.", m.LiveRings)
	gauge("lcrq_recycler_rings", "Approximate ring segments parked in the recycler (upper bound).", m.RecyclerRings)
	closed := int64(0)
	if m.Closed {
		closed = 1
	}
	gauge("lcrq_closed", "1 once the queue has been closed to new enqueues.", closed)
	gauge("lcrq_handles", "Live per-goroutine handles.", int64(m.Handles))
	gauge("lcrq_latency_sample_stride", "Latency sampling stride N (0 = sampling off).", int64(m.SampleN))
	gauge("lcrq_capacity", "Configured item bound (0 = unbounded).", m.Capacity)
	gauge("lcrq_max_rings", "Configured ring-segment budget (0 = unbounded).", int64(m.MaxRings))
	gauge("lcrq_items", "Exact in-flight items on a capacity-bounded queue (0 on unbounded).", m.Items)
	counter("lcrq_capacity_rejects_total", "Enqueue attempts rejected by the item or ring budget.", m.CapacityRejects)
	counter("lcrq_epoch_stalls_total", "Reclamation participants declared stalled-by-policy.", m.EpochStalls)
	counter("lcrq_orphan_recoveries_total", "Leaked handles recovered by the orphan finalizer.", m.OrphanRecoveries)
	wdOK := int64(0)
	if m.Health.OK {
		wdOK = 1
	}
	fmt.Fprintf(b, "# HELP lcrq_watchdog_ok 1 while the watchdog's latest verdict is healthy (also 1 when disabled).\n# TYPE lcrq_watchdog_ok gauge\nlcrq_watchdog_ok{verdict=%q} %d\n", m.Health.Verdict, wdOK)
	counter("lcrq_watchdog_checks_total", "Watchdog inspection ticks completed.", m.Health.Checks)

	// One counter series per tagged instrument.Counters field.
	cv := reflect.ValueOf(m.Stats.Counters)
	for i := range cv.NumField() {
		f := cv.Type().Field(i)
		if name, ok := f.Tag.Lookup("prom"); ok {
			counter(name, f.Tag.Get("help"), cv.Field(i).Uint())
		}
	}
	gauge("lcrq_trace_sample_stride", "Item-trace sampling stride N (0 = tracing off, -1 = forced-only).", int64(m.TraceSampleN))

	if len(m.RingEvents) > 0 {
		fmt.Fprintf(b, "# HELP lcrq_ring_events_total Ring-lifecycle transitions by event.\n# TYPE lcrq_ring_events_total counter\n")
		for _, name := range sortedKeys(m.RingEvents) {
			fmt.Fprintf(b, "lcrq_ring_events_total{event=%q} %d\n", name, m.RingEvents[name])
		}
	}
	if len(m.Chaos) > 0 {
		fmt.Fprintf(b, "# HELP lcrq_chaos_fired_total Fault-injection firings by point (zero without -tags=chaos).\n# TYPE lcrq_chaos_fired_total counter\n")
		for _, name := range sortedKeys(m.Chaos) {
			fmt.Fprintf(b, "lcrq_chaos_fired_total{point=%q} %d\n", name, m.Chaos[name])
		}
	}

	fmt.Fprintf(b, "# HELP lcrq_op_latency_seconds Sampled operation latency by op.\n# TYPE lcrq_op_latency_seconds summary\n")
	for _, series := range []struct {
		op  string
		lat LatencySummary
	}{
		{"enqueue", m.Enqueue},
		{"dequeue", m.Dequeue},
		{"dequeue_wait", m.DequeueWait},
		{"enqueue_wait", m.EnqueueWait},
	} {
		for _, qv := range []struct {
			q string
			v float64
		}{
			{"0.5", series.lat.P50.Seconds()},
			{"0.99", series.lat.P99.Seconds()},
			{"0.999", series.lat.P999.Seconds()},
		} {
			fmt.Fprintf(b, "lcrq_op_latency_seconds{op=%q,quantile=%q} %g\n", series.op, qv.q, qv.v)
		}
		sum := float64(series.lat.Mean.Seconds()) * float64(series.lat.Samples)
		fmt.Fprintf(b, "lcrq_op_latency_seconds_sum{op=%q} %g\n", series.op, sum)
		fmt.Fprintf(b, "lcrq_op_latency_seconds_count{op=%q} %d\n", series.op, series.lat.Samples)
	}

	fmt.Fprintf(b, "# HELP lcrq_sojourn_seconds Sampled item ring residency (enqueue deposit to dequeue claim).\n# TYPE lcrq_sojourn_seconds summary\n")
	for _, qv := range []struct {
		q string
		v float64
	}{
		{"0.5", m.Sojourn.P50.Seconds()},
		{"0.99", m.Sojourn.P99.Seconds()},
		{"0.999", m.Sojourn.P999.Seconds()},
	} {
		fmt.Fprintf(b, "lcrq_sojourn_seconds{quantile=%q} %g\n", qv.q, qv.v)
	}
	fmt.Fprintf(b, "lcrq_sojourn_seconds_sum %g\n", m.Sojourn.Mean.Seconds()*float64(m.Sojourn.Samples))
	fmt.Fprintf(b, "lcrq_sojourn_seconds_count %d\n", m.Sojourn.Samples)

	fmt.Fprintf(b, "# HELP lcrq_batch_size Accepted batch sizes by op (items; _sum is items, _count is batches).\n# TYPE lcrq_batch_size summary\n")
	for _, series := range []struct {
		op string
		bs BatchSummary
	}{
		{"enqueue_batch", m.EnqueueBatch},
		{"dequeue_batch", m.DequeueBatch},
	} {
		for _, qv := range []struct {
			q string
			v int64
		}{
			{"0.5", series.bs.P50},
			{"0.99", series.bs.P99},
		} {
			fmt.Fprintf(b, "lcrq_batch_size{op=%q,quantile=%q} %d\n", series.op, qv.q, qv.v)
		}
		fmt.Fprintf(b, "lcrq_batch_size_sum{op=%q} %d\n", series.op, series.bs.Items)
		fmt.Fprintf(b, "lcrq_batch_size_count{op=%q} %d\n", series.op, series.bs.Batches)
	}
}

func sortedKeys(m map[string]uint64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
