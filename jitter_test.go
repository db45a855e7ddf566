package lcrq

import (
	"testing"
	"time"
)

// TestWaitJitterDispersion is the herd-dispersion regression test: the
// jittered wait backoff must spread a nominal delay uniformly over
// [d/2, 3d/2] — mean-preserving, bounded, and actually dispersed (a
// constant or near-constant jitter would resynchronize waiter herds, which
// is the bug this guards against).
func TestWaitJitterDispersion(t *testing.T) {
	q := New()
	defer q.Close()
	h := q.NewHandle()
	defer h.Release()

	const d = time.Millisecond
	const n = 4096
	var sum time.Duration
	distinct := make(map[time.Duration]struct{})
	for i := 0; i < n; i++ {
		j := h.h.Jitter(d)
		if j < d/2 || j > d+d/2 {
			t.Fatalf("Jitter(%v) = %v, outside [%v, %v]", d, j, d/2, d+d/2)
		}
		sum += j
		distinct[j] = struct{}{}
	}
	mean := sum / n
	if mean < d*9/10 || mean > d*11/10 {
		t.Fatalf("jitter mean %v drifted from nominal %v", mean, d)
	}
	// A millisecond span has ~1e6 representable outcomes; thousands of draws
	// collapsing to a handful of values would mean the RNG stream is broken.
	if len(distinct) < n/2 {
		t.Fatalf("only %d distinct jitter values in %d draws", len(distinct), n)
	}

	// Two handles must draw from uncorrelated streams — lockstep streams
	// would jitter every waiter identically and the herd would survive.
	h2 := q.NewHandle()
	defer h2.Release()
	same := 0
	const pairs = 64
	for i := 0; i < pairs; i++ {
		if h.h.Jitter(d) == h2.h.Jitter(d) {
			same++
		}
	}
	if same == pairs {
		t.Fatal("two handles produced identical jitter streams")
	}

	// Zero and negative delays pass through untouched (no spinning a timer
	// on a degenerate configuration).
	if j := h.h.Jitter(0); j != 0 {
		t.Fatalf("Jitter(0) = %v, want 0", j)
	}
}
