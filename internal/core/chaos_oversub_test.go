//go:build chaos

package core

import (
	"runtime"
	"testing"

	"lcrq/internal/chaos"
)

// TestLinearizableOversubscribed runs the tiny-ring fault campaign with
// more workers than processors (GOMAXPROCS clamped to 2, 8 threads): with
// the CAS2-fail, tantrum and delay faults armed, workers are preempted
// mid-operation inside the retry loops, an interleaving pattern the
// one-thread-per-processor campaigns rarely reach. Histories stay tiny —
// the value is the interleaving diversity, not the op count.
func TestLinearizableOversubscribed(t *testing.T) {
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)
	chaos.Reset()
	defer chaos.Reset()
	chaos.Set(chaos.EnqCAS2Fail, 0.2)
	chaos.Set(chaos.DeqCAS2Fail, 0.2)
	chaos.Set(chaos.Tantrum, 0.15)
	chaos.Set(chaos.DelayEnq, 0.3)
	chaos.Set(chaos.DelayDeq, 0.3)
	chaosCampaign(t, Config{RingOrder: 1, StarvationLimit: 4}, 25, 8, 4, 31)
	if chaos.Fired(chaos.Tantrum) == 0 {
		t.Fatal("tantrum point never fired in the oversubscribed campaign")
	}
}
