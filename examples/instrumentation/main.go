// Instrumentation: watching the LCRQ mechanics through the Stats API.
//
//	go run ./examples/instrumentation
//
// Runs a contended workload and prints the per-operation instruction mix —
// a live miniature of the paper's Table 2. The LCRQ-CAS comparison (fetch-
// and-add emulated with a CAS loop) that shows where the paper's CAS-retry
// waste comes from is an ablation, run from the queue registry by
// `go run ./cmd/qbench -table 2`. Also demonstrates ring churn accounting
// with a deliberately tiny ring.
package main

import (
	"fmt"
	"sync"

	"lcrq"
)

// run drives the queue with bursts of 16 enqueues followed by 16 dequeues
// per worker, so the queue actually holds items (plain enqueue/dequeue
// pairs rarely grow the queue beyond a handful of entries).
func run(name string, q *lcrq.Queue, workers, pairs int) lcrq.Stats {
	const burst = 16
	var wg sync.WaitGroup
	statsCh := make(chan lcrq.Stats, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := q.NewHandle()
			defer h.Release()
			for i := 0; i < pairs; i += burst {
				for j := 0; j < burst; j++ {
					h.Enqueue(uint64(w*pairs+i+j) + 1)
				}
				for j := 0; j < burst; j++ {
					h.Dequeue()
				}
			}
			statsCh <- h.Stats()
		}(w)
	}
	wg.Wait()
	close(statsCh)
	var total lcrq.Stats
	for s := range statsCh {
		total = total.Add(s)
	}
	fmt.Printf("%-12s  %8d ops  %.2f atomics/op  F&A=%d  CAS=%d (%.1f%% failed)  CAS2=%d (%.1f%% failed)\n",
		name, total.Enqueues+total.Dequeues, total.AtomicsPerOp,
		total.FetchAdds,
		total.CASAttempts, pct(total.CASFailures, total.CASAttempts),
		total.CAS2Attempts, pct(total.CAS2Failures, total.CAS2Attempts))
	return total
}

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

func main() {
	const workers, pairs = 8, 50_000

	fmt.Println("instruction mix under contention (compare with Table 2 of the paper):")
	run("lcrq", lcrq.New(), workers, pairs)
	fmt.Println("(for the LCRQ-CAS row: go run ./cmd/qbench -table 2)")

	fmt.Println("\nring churn with a deliberately tiny ring (R=4):")
	tiny := lcrq.New(lcrq.WithRingSize(4))
	s := run("lcrq R=4", tiny, workers, pairs)
	fmt.Printf("  ring segments closed: %d, appended: %d, recycled: %d (%.1f%% reuse)\n",
		s.RingCloses, s.RingAppends, s.RingRecycles,
		pct(s.RingRecycles, s.RingAppends))
	fmt.Println("\nwith the default 4096-cell ring the same workload closes no rings:")
	s = run("lcrq R=4096", lcrq.New(), workers, pairs)
	fmt.Printf("  ring segments closed: %d, appended: %d\n", s.RingCloses, s.RingAppends)
}
