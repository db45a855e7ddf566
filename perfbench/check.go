package main

import (
	"fmt"
	"math/bits"

	"lcrq/internal/pad"
)

// Every value a workload enqueues carries its producer in the top bits and
// the producer's sequence number below them, so a consumer can tell who
// made an item and in which order.
const (
	producerShift = 40
	seqMask       = 1<<producerShift - 1
)

func value(producer int, seq uint64) uint64 { return uint64(producer)<<producerShift | seq }

// consumerLog is one consumer's view of the items it dequeued: per
// producer, the last offset seen (to check FIFO order as it goes) and a
// bitmap of every offset seen (to check exactly-once delivery afterwards).
// Offsets count from the producer's seeded first sequence number. A log is
// owned by one goroutine; verify reads it once that goroutine is done.
type consumerLog struct {
	base  []uint64       // first sequence number of each producer's stream
	views []producerView // one per producer
	err   error          // first violation seen
}

// producerView is one consumer's record of one producer's items, padded
// so that two consumers' records never share a cache line.
type producerView struct {
	next uint64   // offset of the last item seen, plus one
	seen []uint64 // bitmap of offsets seen
	_    pad.Line
}

func newConsumerLog(base []uint64) *consumerLog {
	return &consumerLog{base: base, views: make([]producerView, len(base))}
}

// observe records one dequeued value. Within one consumer each producer's
// items must arrive in increasing order; a repeat or a step back is a
// duplicate or a reordering.
func (c *consumerLog) observe(v uint64) {
	p := int(v >> producerShift)
	seq := v & seqMask
	if p >= len(c.base) || seq < c.base[p] {
		c.fail(fmt.Errorf("value %#x was never produced", v))
		return
	}
	off := seq - c.base[p]
	pv := &c.views[p]
	if off < pv.next {
		c.fail(fmt.Errorf("producer %d item %d arrived after item %d: duplicated or reordered", p, off, pv.next-1))
		return
	}
	pv.next = off + 1
	w := int(off / 64)
	for len(pv.seen) <= w {
		pv.seen = append(pv.seen, 0)
	}
	pv.seen[w] |= 1 << (off % 64)
}

func (c *consumerLog) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// verify checks that the consumers together saw every produced item
// exactly once: produced[p] is how many items producer p enqueued. It
// returns the first violation found.
func verify(produced []uint64, logs []*consumerLog) error {
	for _, l := range logs {
		if l.err != nil {
			return l.err
		}
	}
	for p, n := range produced {
		var union []uint64
		for _, l := range logs {
			seen := l.views[p].seen
			for len(union) < len(seen) {
				union = append(union, 0)
			}
			for w, bitsSeen := range seen {
				if dup := union[w] & bitsSeen; dup != 0 {
					off := uint64(w)*64 + uint64(bits.TrailingZeros64(dup))
					return fmt.Errorf("producer %d item %d was delivered twice", p, off)
				}
				union[w] |= bitsSeen
			}
		}
		var got uint64
		for w, b := range union {
			got += uint64(bits.OnesCount64(b))
			lo := uint64(w) * 64
			var allowed uint64 // offsets below n in this word
			if lo < n {
				allowed = lowBits(n - lo)
			}
			if extra := b &^ allowed; extra != 0 {
				off := lo + uint64(bits.TrailingZeros64(extra))
				return fmt.Errorf("producer %d item %d was delivered but never enqueued", p, off)
			}
		}
		if got != n {
			return fmt.Errorf("producer %d: %d of %d items delivered, first lost item %d", p, got, n, firstMissing(union, n))
		}
	}
	return nil
}

// lowBits returns a mask of the lowest n bits (all 64 when n ≥ 64).
func lowBits(n uint64) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return 1<<n - 1
}

func firstMissing(union []uint64, n uint64) uint64 {
	for off := uint64(0); off < n; off++ {
		w := int(off / 64)
		if w >= len(union) || union[w]&(1<<(off%64)) == 0 {
			return off
		}
	}
	return n
}
