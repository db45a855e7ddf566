package lcrq

import "lcrq/internal/instrument"

// Stats is a snapshot of per-handle operation statistics, mirroring the
// quantities reported in Tables 2 and 3 of the paper. It embeds the
// internal instrumentation counters, so every counter the bench harness
// aggregates (Enqueues, FetchAdds, CAS2Failures, RingAppends, ...) is a
// field of Stats by construction; see instrument.Counters for the list.
type Stats struct {
	instrument.Counters
	AtomicsPerOp float64 // average atomic instructions per operation
}

func statsFromCounters(c *instrument.Counters) Stats {
	return Stats{Counters: *c, AtomicsPerOp: c.AtomicsPerOp()}
}

// Add returns the field-wise sum of s and o, with AtomicsPerOp recomputed
// from the summed counters.
func (s Stats) Add(o Stats) Stats {
	s.Counters.Add(&o.Counters)
	return statsFromCounters(&s.Counters)
}
