package harness

import (
	"fmt"

	"lcrq/internal/hist"
)

// Scale tunes how much work a figure run performs. The zero value selects
// the scaled-down defaults; Paper() selects the full configuration of the
// paper (10^7 pairs per thread, 10 runs), which takes minutes per figure.
type Scale struct {
	Pairs      int   // pairs per thread (0 = 20000)
	Runs       int   // repetitions (0 = 3)
	MaxThreads int   // clip thread axis (0 = no clip)
	Threads    []int // override thread axis entirely (nil = spec default)
	RingOrder  int   // override LCRQ ring order (0 = spec default)
	Pin        bool  // pin threads to CPUs
}

func (s Scale) pairs() int {
	if s.Pairs <= 0 {
		return 20000
	}
	return s.Pairs
}

func (s Scale) runs() int {
	if s.Runs <= 0 {
		return 3
	}
	return s.Runs
}

// Paper returns the full-size configuration used in the paper.
func Paper() Scale { return Scale{Pairs: 10_000_000, Runs: 10} }

// FigureSpec declares one throughput figure: which queues, which thread
// counts, what placement and prefill.
type FigureSpec struct {
	ID        string
	Title     string
	Queues    []string
	Threads   []int
	Placement Placement
	Clusters  int // RoundRobin cluster count (0 = detected)
	Prefill   int
	MaxDelay  int
	RingOrder int
	// EnqRatio switches the figure to the mixed-workload extension (see
	// Workload.EnqRatio); the paper's figures leave it 0.
	EnqRatio float64
}

// Figure6aThreads is the paper's single-processor thread axis (20 hardware
// threads on one Westmere EX package).
var Figure6aThreads = []int{1, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20}

// Figure6bThreads oversubscribes a single processor (the first point is
// maximal hardware concurrency, included for reference).
var Figure6bThreads = []int{20, 30, 40, 60, 80, 120, 160}

// Figure7Threads is the paper's four-processor thread axis.
var Figure7Threads = []int{1, 2, 4, 8, 16, 24, 32, 40, 48, 56, 64, 72, 80}

// Figures returns the throughput figure specifications, keyed by figure id.
func Figures() map[string]FigureSpec {
	return map[string]FigureSpec{
		"6a": {
			ID:        "6a",
			Title:     "Single processor, queue initially empty",
			Queues:    []string{"lcrq", "lcrq-cas", "cc-queue", "fc-queue", "ms-queue"},
			Threads:   Figure6aThreads,
			Placement: SingleCluster,
			MaxDelay:  100,
		},
		"6b": {
			ID:        "6b",
			Title:     "Single processor, oversubscribed (threads > hardware threads)",
			Queues:    []string{"lcrq", "lcrq-cas", "cc-queue", "fc-queue", "ms-queue"},
			Threads:   Figure6bThreads,
			Placement: SingleCluster,
			MaxDelay:  100,
		},
		"7a": {
			ID:        "7a",
			Title:     "Four processors, queue initially filled with 2^16 items",
			Queues:    []string{"lcrq+h", "lcrq", "lcrq-cas", "h-queue", "cc-queue"},
			Threads:   Figure7Threads,
			Placement: RoundRobin,
			Clusters:  4,
			Prefill:   1 << 16,
			MaxDelay:  100,
		},
		"7b": {
			ID:        "7b",
			Title:     "Four processors, queue initially empty",
			Queues:    []string{"lcrq+h", "lcrq", "lcrq-cas", "h-queue", "cc-queue"},
			Threads:   Figure7Threads,
			Placement: RoundRobin,
			Clusters:  4,
			MaxDelay:  100,
		},
	}
}

// Point is one measurement along a figure's x axis.
type Point struct {
	X    int     // thread count (or ring order for Figure 9)
	Mops float64 // mean throughput, million ops/s
	CI   float64 // 95% confidence half-width
}

// Series is one queue's line in a figure.
type Series struct {
	Queue  string
	Points []Point
}

// FigureResult is the data behind one rendered figure.
type FigureResult struct {
	Spec      FigureSpec
	Scale     Scale
	Series    []Series
	Simulated bool
	Pinned    bool
	HostCPUs  int
	HostPkgs  int
}

// RunFigure measures every (queue, threads) point of the spec.
func RunFigure(spec FigureSpec, sc Scale) (*FigureResult, error) {
	sc.Pairs, sc.Runs = sc.pairs(), sc.runs() // effective values, for display
	threads := spec.Threads
	if sc.Threads != nil {
		threads = sc.Threads
	}
	if sc.MaxThreads > 0 {
		clipped := threads[:0:0]
		for _, t := range threads {
			if t <= sc.MaxThreads {
				clipped = append(clipped, t)
			}
		}
		if len(clipped) == 0 {
			clipped = []int{sc.MaxThreads}
		}
		threads = clipped
	}
	out := &FigureResult{Spec: spec, Scale: sc}
	for _, qname := range spec.Queues {
		s := Series{Queue: qname}
		for _, th := range threads {
			w := Workload{
				Queue:     qname,
				Threads:   th,
				Pairs:     sc.pairs(),
				Prefill:   spec.Prefill,
				MaxDelay:  spec.MaxDelay,
				Placement: spec.Placement,
				Clusters:  spec.Clusters,
				RingOrder: pick(sc.RingOrder, spec.RingOrder),
				Runs:      sc.runs(),
				Pin:       sc.Pin,
				EnqRatio:  spec.EnqRatio,
			}
			r, err := Run(w)
			if err != nil {
				return nil, fmt.Errorf("figure %s, queue %s, %d threads: %w",
					spec.ID, qname, th, err)
			}
			s.Points = append(s.Points, Point{X: th, Mops: r.Mops.Mean(), CI: r.Mops.CI95()})
			out.Simulated = out.Simulated || r.Simulated
			out.Pinned = r.Pinned
			out.HostCPUs = r.HostCPUs
			out.HostPkgs = r.HostPkgs
		}
		out.Series = append(out.Series, s)
	}
	return out, nil
}

func pick(a, b int) int {
	if a != 0 {
		return a
	}
	return b
}

// ---- Figure 8: latency CDFs ----

// LatencySpec declares one latency-distribution figure.
type LatencySpec struct {
	ID        string
	Title     string
	Queues    []string
	Threads   int
	Placement Placement
	Clusters  int
	MaxDelay  int
}

// LatencyFigures returns the Figure 8 specifications.
func LatencyFigures() map[string]LatencySpec {
	return map[string]LatencySpec{
		"8a": {
			ID:        "8a",
			Title:     "20 threads on a single processor, queue initially empty",
			Queues:    []string{"lcrq", "cc-queue", "fc-queue", "ms-queue"},
			Threads:   20,
			Placement: SingleCluster,
			MaxDelay:  100,
		},
		"8b": {
			ID:        "8b",
			Title:     "80 threads on four processors, queue initially empty",
			Queues:    []string{"lcrq+h", "lcrq", "h-queue", "cc-queue"},
			Threads:   80,
			Placement: RoundRobin,
			Clusters:  4,
			MaxDelay:  100,
		},
	}
}

// CDFSeries is one queue's latency distribution.
type CDFSeries struct {
	Queue  string
	Hist   *hist.H
	MeanNs float64
}

// LatencyResult is the data behind one latency figure.
type LatencyResult struct {
	Spec   LatencySpec
	Series []CDFSeries
}

// RunLatencyFigure samples operation latency for every queue in the spec.
func RunLatencyFigure(spec LatencySpec, sc Scale) (*LatencyResult, error) {
	out := &LatencyResult{Spec: spec}
	for _, qname := range spec.Queues {
		w := Workload{
			Queue:         qname,
			Threads:       spec.Threads,
			Pairs:         sc.pairs(),
			MaxDelay:      spec.MaxDelay,
			Placement:     spec.Placement,
			Clusters:      spec.Clusters,
			RingOrder:     sc.RingOrder,
			Runs:          1, // distributions accumulate enough samples in one run
			Pin:           sc.Pin,
			LatencySample: 16,
		}
		if sc.MaxThreads > 0 && w.Threads > sc.MaxThreads {
			w.Threads = sc.MaxThreads
		}
		r, err := Run(w)
		if err != nil {
			return nil, fmt.Errorf("latency figure %s, queue %s: %w", spec.ID, qname, err)
		}
		out.Series = append(out.Series, CDFSeries{
			Queue:  qname,
			Hist:   r.Hist,
			MeanNs: r.Hist.Mean(),
		})
	}
	return out, nil
}

// ---- Figure 9: ring-size sensitivity ----

// RingSweepSpec declares a ring-size sensitivity study.
type RingSweepSpec struct {
	ID         string
	Title      string
	Queue      string   // swept queue (lcrq or lcrq+h)
	References []string // flat reference lines (cc-queue / h-queue)
	Threads    int
	Placement  Placement
	Clusters   int
	Orders     []int // ring orders to sweep (R = 2^order)
	MaxDelay   int
}

// RingSweeps returns the Figure 9 specifications.
func RingSweeps() map[string]RingSweepSpec {
	orders := []int{3, 5, 7, 9, 11, 13, 15, 17}
	return map[string]RingSweepSpec{
		"9a": {
			ID:         "9a",
			Title:      "Ring size impact, single processor, 20 threads",
			Queue:      "lcrq",
			References: []string{"cc-queue"},
			Threads:    20,
			Placement:  SingleCluster,
			Orders:     orders,
			MaxDelay:   100,
		},
		"9b": {
			ID:         "9b",
			Title:      "Ring size impact, four processors, 80 threads",
			Queue:      "lcrq",
			References: []string{"cc-queue", "h-queue"},
			Threads:    80,
			Placement:  RoundRobin,
			Clusters:   4,
			Orders:     orders,
			MaxDelay:   100,
		},
		"9c": {
			ID:         "9c",
			Title:      "Ring size impact on LCRQ+H, four processors, 80 threads",
			Queue:      "lcrq+h",
			References: []string{"h-queue"},
			Threads:    80,
			Placement:  RoundRobin,
			Clusters:   4,
			Orders:     orders,
			MaxDelay:   100,
		},
	}
}

// RingSweepResult is the data behind one ring sweep.
type RingSweepResult struct {
	Spec       RingSweepSpec
	Swept      Series  // X = ring order
	References []Point // one throughput value per reference queue, X unused
	RefNames   []string
}

// RunRingSweep measures the swept queue at each ring order plus the flat
// references.
func RunRingSweep(spec RingSweepSpec, sc Scale) (*RingSweepResult, error) {
	out := &RingSweepResult{Spec: spec}
	threads := spec.Threads
	if sc.MaxThreads > 0 && threads > sc.MaxThreads {
		threads = sc.MaxThreads
	}
	base := Workload{
		Threads:   threads,
		Pairs:     sc.pairs(),
		MaxDelay:  spec.MaxDelay,
		Placement: spec.Placement,
		Clusters:  spec.Clusters,
		Runs:      sc.runs(),
		Pin:       sc.Pin,
	}
	out.Swept.Queue = spec.Queue
	for _, order := range spec.Orders {
		w := base
		w.Queue = spec.Queue
		w.RingOrder = order
		r, err := Run(w)
		if err != nil {
			return nil, fmt.Errorf("ring sweep %s at order %d: %w", spec.ID, order, err)
		}
		out.Swept.Points = append(out.Swept.Points,
			Point{X: order, Mops: r.Mops.Mean(), CI: r.Mops.CI95()})
	}
	for _, ref := range spec.References {
		w := base
		w.Queue = ref
		r, err := Run(w)
		if err != nil {
			return nil, fmt.Errorf("ring sweep %s reference %s: %w", spec.ID, ref, err)
		}
		out.References = append(out.References, Point{Mops: r.Mops.Mean(), CI: r.Mops.CI95()})
		out.RefNames = append(out.RefNames, ref)
	}
	return out, nil
}

// ---- Tables 2 and 3: per-operation statistics ----

// TableSpec declares one statistics table.
type TableSpec struct {
	ID        string
	Title     string
	Queues    []string
	Threads   []int // table 2 reports 1 and 20 threads
	Placement Placement
	Clusters  int
	Prefills  []int // table 3 reports empty and full
	MaxDelay  int
}

// Tables returns the Table 2 and Table 3 specifications.
func Tables() map[string]TableSpec {
	return map[string]TableSpec{
		"2": {
			ID:        "2",
			Title:     "Single processor average per-operation statistics",
			Queues:    []string{"lcrq", "lcrq-cas", "cc-queue", "fc-queue", "ms-queue"},
			Threads:   []int{1, 20},
			Placement: SingleCluster,
			Prefills:  []int{0},
			MaxDelay:  100,
		},
		"3": {
			ID:        "3",
			Title:     "Four processor average per-operation statistics (80 threads)",
			Queues:    []string{"lcrq+h", "lcrq", "lcrq-cas", "h-queue", "cc-queue"},
			Threads:   []int{80},
			Placement: RoundRobin,
			Clusters:  4,
			Prefills:  []int{0, 1 << 16},
			MaxDelay:  100,
		},
	}
}

// TableCell is the measured statistics of one queue at one configuration.
type TableCell struct {
	Queue        string
	Threads      int
	Prefill      int
	LatencyUs    float64 // mean per-operation latency in µs
	AtomicsPerOp float64
	CASFailPerOp float64 // software substitute for the cache-miss columns
	RetriesPerOp float64 // CRQ cell retries / combining batch overhead
	Mops         float64
}

// TableResult is the data behind one statistics table.
type TableResult struct {
	Spec  TableSpec
	Cells []TableCell
}

// RunTable measures every cell of the table spec.
func RunTable(spec TableSpec, sc Scale) (*TableResult, error) {
	out := &TableResult{Spec: spec}
	for _, prefill := range spec.Prefills {
		for _, th := range spec.Threads {
			threads := th
			if sc.MaxThreads > 0 && threads > sc.MaxThreads {
				threads = sc.MaxThreads
			}
			for _, qname := range spec.Queues {
				w := Workload{
					Queue:     qname,
					Threads:   threads,
					Pairs:     sc.pairs(),
					Prefill:   prefill,
					MaxDelay:  spec.MaxDelay,
					Placement: spec.Placement,
					Clusters:  spec.Clusters,
					RingOrder: sc.RingOrder,
					Runs:      sc.runs(),
					Pin:       sc.Pin,
				}
				r, err := Run(w)
				if err != nil {
					return nil, fmt.Errorf("table %s, queue %s: %w", spec.ID, qname, err)
				}
				ops := float64(r.Counters.Ops())
				var latencyUs float64
				if ops > 0 {
					// Total thread-time divided by ops: wall × threads / ops.
					latencyUs = r.WallPerRun.Seconds() * float64(threads) * 1e6 /
						(float64(r.OpsPerRun))
				}
				cell := TableCell{
					Queue:        qname,
					Threads:      threads,
					Prefill:      prefill,
					LatencyUs:    latencyUs,
					AtomicsPerOp: r.Counters.AtomicsPerOp(),
					CASFailPerOp: r.Counters.CASFailuresPerOp(),
					RetriesPerOp: float64(r.Counters.CellRetries) / maxF(ops, 1),
					Mops:         r.Mops.Mean(),
				}
				out.Cells = append(out.Cells, cell)
			}
		}
	}
	return out, nil
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
