// Command perfbench is the repository's benchmark. It drives one workload
// against the lcrq stack, checks that every item is delivered exactly once
// and in per-producer order, and prints its metrics, one per line, then
// the result as a JSON object on the last line of standard output.
//
//	bash perfbench/run.sh --workload pairs --seed 1 --seconds 20 --trace 0
//
// Workloads, all closed-loop with two load goroutines or two connections:
//
//	pairs    the paper's pairwise workload on lcrq.Handle
//	backlog  Typed[*item] filled to 2^20 items, then drained, repeatedly
//	service  an in-process qserve server driven over loopback HTTP
//
// --trace 0 reports the end-to-end metrics. --trace 1 re-drives the
// workload alternately untraced and traced, records spans around the calls
// into each layer, runs the layer ladder, and reports the per-layer
// metrics and the tracing overhead. --seed fixes every generated input.
// The exit code is 1 when an output check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"time"

	"lcrq/internal/buildmeta"
	"lcrq/internal/core"
	"lcrq/internal/xrand"
)

type options struct {
	workload    string
	seed        uint64
	seconds     int
	d           time.Duration // measured load
	warmup      time.Duration // untimed load before it
	trace       bool
	spans       string        // where the traced run writes its spans
	setups      int           // set-ups timed for setup_s; the last one is used
	fill        int           // backlog items per cycle, and the probes' depth
	ladderSlice time.Duration // how long each ladder rung runs per round
}

func newOptions(name string, seed uint64, seconds int, trace bool) options {
	d := time.Duration(seconds) * time.Second
	return options{
		workload:    name,
		seed:        seed,
		seconds:     seconds,
		d:           d,
		warmup:      d / 20,
		trace:       trace,
		spans:       filepath.Join(".bench_build", "spans-"+name+".jsonl"),
		setups:      15,
		fill:        1 << 20,
		ladderSlice: max(d/800, 2*time.Millisecond),
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: pairs, backlog or service")
		seed    = flag.Uint64("seed", 1, "seed of every generated input")
		seconds = flag.Int("seconds", 10, "seconds of measured load")
		trace   = flag.Int("trace", 0, "1 runs the traced pass and the layer ladder instead")
		spans   = flag.String("spans", "", "file for the traced run's spans (default .bench_build/spans-<workload>.jsonl)")
	)
	flag.Parse()
	if _, ok := workloads[*name]; !ok || *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload pairs|backlog|service --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	o := newOptions(*name, *seed, *seconds, *trace == 1)
	if *spans != "" {
		o.spans = *spans
	}
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// run runs the workload o names, writes the stamp, notes and metrics to
// w, and returns the result. An error means the run could not be set up
// or measured; a failed output check gives a result with Correct false.
func run(o options, w io.Writer) (result, error) {
	wl := workloads[o.workload]
	writeStamp(w, o)
	var res result
	var err error
	if o.trace {
		res, err = runTraced(o, wl, w)
	} else {
		res, err = runEndToEnd(o, wl, w)
	}
	if err != nil {
		return result{}, err
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-32s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	return res, nil
}

// runEndToEnd measures the heap of a fresh queue of the workload's kind,
// times o.setups set-ups, warms the last one up, measures it for o.d, and
// checks its deliveries.
func runEndToEnd(o options, wl workload, w io.Writer) (result, error) {
	// The heap probe runs first, in a process that holds nothing else.
	perItem, err := wl.memProbe(o)
	if err != nil {
		return result{}, err
	}
	liveHeap() // collect what the probe left behind
	var setups []float64
	var e env
	for range o.setups {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		var err error
		if e, err = wl.setup(o); err != nil {
			return result{}, fmt.Errorf("%s set-up: %w", o.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	warm := e.run(o.warmup, nil)
	ps := e.run(o.d, nil)
	checkErr := e.finish()
	svc, sendsRequests := e.(*serviceEnv)
	var hs httpStats
	if sendsRequests {
		hs = svc.httpStats()
	}
	e.close()
	t, all := sum(ps), sum(append(warm, ps...))
	rate, enqRate, deqRate := t.rate(), t.enqRate(), t.deqRate()
	if wl.windowed {
		rate, enqRate, deqRate = medianRates(ps)
	}
	res := result{
		Correct:   checkErr == nil,
		Attempted: all.attempted,
		Failed:    all.failed,
		Metrics: map[string]metric{
			"setup_s":        {median(setups), "s"},
			"throughput":     {rate, "items/s"},
			"enq_throughput": {enqRate, "items/s"},
			"deq_throughput": {deqRate, "items/s"},
			"bytes_per_item": {perItem, "B"},
			"rtt_p50_ms":     {quantile(t.rttNs, 0.50) / 1e6, "ms"},
			"rtt_p90_ms":     {quantile(t.rttNs, 0.90) / 1e6, "ms"},
		},
	}
	if checkErr != nil {
		fmt.Fprintln(w, "# output check failed:", checkErr)
	}
	// The tail beyond p90 follows the host: on a shared virtual machine it
	// moves with the time the hypervisor takes the CPUs away, so it is
	// printed but not one of the bounded metrics.
	fmt.Fprintf(w, "# %d parts, %d rtt samples: p99 %.6g ms, p99.9 %.6g ms; fail_ratio %.6g (%d of %d failed)\n",
		len(ps), len(t.rttNs), quantile(t.rttNs, 0.99)/1e6, quantile(t.rttNs, 0.999)/1e6,
		ratioOf(res.Failed, res.Attempted), res.Failed, res.Attempted)
	if wl.windowed {
		var rs []float64
		for _, p := range ps {
			rs = append(rs, p.rate())
		}
		fmt.Fprintf(w, "# rates are medians of %d windows (throughput p10 %.6g, p90 %.6g); whole-run throughput %.6g items/s\n",
			len(ps), quantile(rs, 0.1), quantile(rs, 0.9), t.rate())
	}
	if sendsRequests {
		fmt.Fprintf(w, "# %d requests reached the server, %d refused or expired, %d client retries, %d empty long-polls\n",
			hs.requests, hs.rejects, hs.retries, svc.empty)
	}
	return res, nil
}

// runTraced re-drives the workload in four segments, untraced, traced,
// traced, untraced, so drift falls on both sides alike; then it runs the
// layer ladder and writes the spans. Server and client metrics come from
// the workload's own requests, or from the ladder's loopback rung when
// the workload sends none.
func runTraced(o options, wl workload, w io.Writer) (result, error) {
	e, err := wl.setup(o)
	if err != nil {
		return result{}, fmt.Errorf("%s set-up: %w", o.workload, err)
	}
	warm := e.run(o.warmup, nil)
	tr := newTracer()
	rt0 := readRuntime()
	var off, on []part
	for _, traced := range []bool{false, true, true, false} {
		if traced {
			on = append(on, e.run(o.d/4, tr)...)
		} else {
			off = append(off, e.run(o.d/4, nil)...)
		}
	}
	rt := readRuntime().sub(rt0)
	checkErr := e.finish()
	peak := e.liveRingsPeak()
	svc, sendsRequests := e.(*serviceEnv)
	var hs httpStats
	if sendsRequests {
		hs = svc.httpStats()
	}
	e.close()
	st := e.stats()

	lad, err := runLadder(o, tr, !sendsRequests)
	if err != nil {
		return result{}, err
	}
	if !sendsRequests {
		hs = lad.http
	}
	if err := tr.write(o.spans); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	writeLadder(w, lad)

	if checkErr == nil && lad.failed > 0 {
		checkErr = fmt.Errorf("ladder: %d dequeues found the queue empty after their own enqueue", lad.failed)
	}
	if checkErr != nil {
		fmt.Fprintln(w, "# output check failed:", checkErr)
	}

	callN, callNs := sumTotals(tr, spanEnqueueCall, spanDequeueCall)
	rtN, rtNs := tr.total(spanRoundTrip)
	_, serveNs := sumTotals(tr, spanServeEnq, spanServeDeq)
	enqServeN, enqServeNs := tr.total(spanServeEnq)
	offT, onT, all := sum(off), sum(on), sum(slices.Concat(warm, off, on))
	r := lad.rungs
	m := map[string]metric{
		"core.ring.ns_per_pair":         {r[rungCAS2].nsPerItem(), "ns"},
		"core.ring.scq_ns_per_pair":     {r[rungSCQ].nsPerItem(), "ns"},
		"core.ring.scq_cas2_ratio":      {lad.ratio(rungCAS2, rungSCQ), "ratio"},
		"core.ring.cas2_fail_ratio":     {ratioOf(st.CAS2Failures, st.CAS2Attempts), "ratio"},
		"core.ring.cell_retries_per_op": {ratioOf(st.CellRetries, st.Enqueues+st.Dequeues), "count"},
		"core.ring.atomics_per_op":      {st.AtomicsPerOp, "count"},
		"core.list.ns_per_pair":         {r[rungHazard].nsPerItem(), "ns"},
		"core.list.epoch_ns_per_pair":   {r[rungEpoch].nsPerItem(), "ns"},
		"core.list.gc_ns_per_pair":      {r[rungGC].nsPerItem(), "ns"},
		"core.list.appends_per_mitem":   {1e6 * ratioOf(st.RingAppends, st.Enqueues), "count"},
		"core.list.recycle_ratio":       {ratioOf(st.RingRecycles, st.RingAppends), "ratio"},
		"core.list.live_rings_peak":     {float64(peak), "count"},
		"baseline.chan_ns_per_pair":     {r[rungChan].nsPerItem(), "ns"},
		"lcrq.handle.ns_per_pair":       {r[rungHandle].nsPerItem(), "ns"},
		"lcrq.handle.ratio":             {lad.ratio(rungHandle, rungHazard), "ratio"},
		"lcrq.handle.chan_ratio":        {lad.ratio(rungHandle, rungChan), "ratio"},
		"lcrq.queue.ns_per_pair":        {r[rungQueue].nsPerItem(), "ns"},
		"lcrq.queue.batch_ns_per_item":  {r[rungBatch].nsPerItem(), "ns"},
		"lcrq.typed.ns_per_item":        {r[rungTyped].nsPerItem(), "ns"},
		"lcrq.typed.ratio":              {lad.ratio(rungTyped, rungHandle), "ratio"},
		"lcrq.typed.allocs_per_item":    {ratioOf(r[rungTyped].allocs, r[rungTyped].items), "count"},
		"telemetry.ns_per_pair":         {r[rungTel].nsPerItem(), "ns"},
		"telemetry.ratio":               {lad.ratio(rungTel, rungHandle), "ratio"},
		"server.ns_per_req":             {nsPer(enqServeNs, enqServeN), "ns"},
		"server.inproc_ns_per_req":      {r[rungInproc].nsPerItem() / 2, "ns"},
		"server.allocs_per_req":         {ratioOf(r[rungInproc].allocs, 2*r[rungInproc].pairs), "count"},
		"server.reject_ratio":           {ratioOf(hs.rejects, hs.requests), "ratio"},
		"client.self_ns_per_req":        {nsPer(callNs-rtNs, callN), "ns"},
		"client.wire_ns_per_req":        {nsPer(rtNs-serveNs, rtN), "ns"},
		"client.retries_per_req":        {ratioOf(hs.retries, hs.calls), "count"},
		"runtime.gc_cpu_frac":           {rt.gcCPU / rt.totalCPU, "ratio"},
		"runtime.alloc_bytes_per_item":  {rt.allocBytes / float64(offT.items+offT.untimed+onT.items+onT.untimed), "B"},
		"trace.overhead_frac":           {offT.rate()/onT.rate() - 1, "ratio"},
	}
	fmt.Fprintf(w, "# traced segments: %d spans kept of %d; untraced %.6g items/s, traced %.6g items/s\n",
		len(tr.kept), len(tr.kept)+tr.dropped, offT.rate(), onT.rate())
	res := result{
		Correct:   checkErr == nil,
		Attempted: all.attempted,
		Failed:    all.failed + lad.failed,
		Metrics:   m,
	}
	for _, t := range lad.rungs {
		res.Attempted += t.pairs
	}
	return res, nil
}

func sumTotals(tr *tracer, names ...string) (n, ns int64) {
	for _, name := range names {
		a, b := tr.total(name)
		n, ns = n+a, ns+b
	}
	return n, ns
}

func ratioOf(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func nsPer(ns, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(ns) / float64(n)
}

// writeLadder prints each rung's ns per item and its ratio to the rung it
// builds on.
func writeLadder(w io.Writer, lad *ladderResult) {
	fmt.Fprintf(w, "# layer ladder (%d rounds; ns per item, ratio to the rung below)\n", ladderRounds)
	for _, r := range lad.order {
		below := ""
		if r.below != "" {
			below = fmt.Sprintf("%6.2fx %s", lad.ratio(r.name, r.below), r.below)
		}
		fmt.Fprintf(w, "#   %-18s %10.1f  %s\n", r.name, lad.rungs[r.name].nsPerItem(), below)
	}
}

// runtimeTotals are the process's cumulative runtime/metrics counters.
type runtimeTotals struct{ gcCPU, totalCPU, allocBytes, allocObjects float64 }

var runtimeSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/tiny/allocs:objects"},
}

// readRuntime reads the counters; only one goroutine at a time may call it.
func readRuntime() runtimeTotals {
	metrics.Read(runtimeSamples)
	return runtimeTotals{
		gcCPU:        runtimeSamples[0].Value.Float64(),
		totalCPU:     runtimeSamples[1].Value.Float64(),
		allocBytes:   float64(runtimeSamples[2].Value.Uint64()),
		allocObjects: float64(runtimeSamples[3].Value.Uint64() + runtimeSamples[4].Value.Uint64()),
	}
}

func (a runtimeTotals) sub(b runtimeTotals) runtimeTotals {
	return runtimeTotals{a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU, a.allocBytes - b.allocBytes, a.allocObjects - b.allocObjects}
}

// stamp says what produced a result.
type stamp struct {
	Workload    string `json:"workload"`
	Seed        uint64 `json:"seed"`
	Seconds     int    `json:"seconds"`
	Trace       bool   `json:"trace"`
	NProc       int    `json:"nproc"`
	GoMaxProcs  int    `json:"gomaxprocs"`
	GoArch      string `json:"goarch"`
	GoVersion   string `json:"go_version"`
	Ring        string `json:"ring"`
	Reclamation string `json:"reclamation"`
	Commit      string `json:"commit"`
	Dirty       bool   `json:"dirty,omitempty"`
	Contention  string `json:"contention"`
}

func writeStamp(w io.Writer, o options) {
	meta := buildmeta.Collect()
	cfg := core.NewLCRQ(core.Config{}).Config()
	s := stamp{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		NProc: runtime.NumCPU(), GoMaxProcs: meta.GoMaxProcs, GoArch: runtime.GOARCH,
		GoVersion: meta.GoVersion, Ring: cfg.Ring.String(), Reclamation: cfg.Reclamation.String(),
		Commit: meta.Commit, Dirty: meta.Dirty, Contention: "contention result",
	}
	if s.GoMaxProcs < 2 {
		s.Contention = "not a contention result (GOMAXPROCS < 2)"
	}
	b, _ := json.Marshal(s) // a struct of strings, ints and bools always marshals
	fmt.Fprintf(w, "# stamp %s\n", b)
}

// streamBases returns each producer's first sequence number, drawn from
// the seed, leaving room below the producer bits for the run's items.
func streamBases(seed uint64) []uint64 {
	r := xrand.New(seed)
	bases := make([]uint64, loaders)
	for i := range bases {
		bases[i] = r.Uintn(1 << (producerShift - 2))
	}
	return bases
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
