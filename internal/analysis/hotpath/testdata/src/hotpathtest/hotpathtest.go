// Package hotpathtest is a lint fixture: allocation, blocking, and
// scheduler operations inside //lcrq:hotpath functions, plus the same
// operations in unannotated functions where they are fine.
package hotpathtest

import (
	"runtime"
	"sync"
	"time"
)

type pair struct{ a, b uint64 }

type queue struct {
	mu    sync.Mutex
	items map[uint64]uint64
	ch    chan uint64
	buf   []uint64
}

// enqueue is annotated hot and commits every sin at once.
//
//lcrq:hotpath
func (q *queue) enqueue(v uint64) {
	q.mu.Lock()                 // want `sync\.Mutex\.Lock \(blocking/allocating\) in //lcrq:hotpath function enqueue`
	buf := make([]uint64, 1)    // want `make \(allocation\)`
	buf = append(buf, v)        // want `append \(allocation\)`
	p := new(pair)              // want `new \(allocation\)`
	lit := pair{a: v, b: v}     // want `composite literal \(allocation\)`
	f := func() {}              // want `function literal \(closure allocation\)`
	q.items[v] = v              // want `map write`
	q.ch <- v                   // want `channel send`
	time.Sleep(time.Nanosecond) // want `time\.Sleep`
	runtime.Gosched()           // want `runtime\.Gosched`
	go q.drain()                // want `go statement`
	select {                    // want `select statement`
	case w := <-q.ch: // want `channel receive`
		_ = w
	default:
	}
	q.mu.Unlock() // want `sync\.Mutex\.Unlock \(blocking/allocating\)`
	_, _, _, _ = buf, p, lit, f
}

// label allocates through string concatenation.
//
//lcrq:hotpath
func label(s string) string {
	const prefix = "q:"
	ok := prefix + "static" // constant concatenation is fine
	_ = ok
	return s + "!" // want `string concatenation \(allocation\)`
}

// fast is hot and clean: loads, stores, arithmetic, calls to annotated
// helpers, defer, and panic are all allowed.
//
//lcrq:hotpath
func (q *queue) fast(v uint64) uint64 {
	if v == 0 {
		panic("hotpathtest: zero value")
	}
	defer noteExit()
	q.buf[0] = v
	return q.buf[0] + step(v)
}

//lcrq:hotpath
func step(v uint64) uint64 { return v + 1 }

func noteExit() {}

// Trace stamping: the item-trace machinery writes its stamp slot and hit
// buffer on the operation paths, so both must be written field-by-field — a
// composite-literal stamp or hit is an allocation the analyzer rejects.

type stamp struct {
	tag, id uint64
	ns      int64
}

type hit struct {
	id  uint64
	ns  int64
	pos int
}

type traced struct {
	stamps []stamp
	hits   [8]hit
	nhits  int
}

// depositStamp is the correct shape: slot fields written one by one, tag
// last; no diagnostics.
//
//lcrq:hotpath
func (q *traced) depositStamp(t, id uint64, ns int64) {
	slot := &q.stamps[t&7]
	slot.id = id
	slot.ns = ns
	slot.tag = t + 1
}

// recordHit is the correct shape for the dequeue side: the fixed hit buffer
// is filled field-by-field under a bounds check.
//
//lcrq:hotpath
func (q *traced) recordHit(id uint64, ns int64, pos int) {
	if q.nhits >= len(q.hits) {
		return
	}
	h := &q.hits[q.nhits]
	h.id = id
	h.ns = ns
	h.pos = pos
	q.nhits++
}

// depositStampLit is the tempting-but-wrong shape.
//
//lcrq:hotpath
func (q *traced) depositStampLit(t, id uint64, ns int64) {
	q.stamps[t&7] = stamp{tag: t + 1, id: id, ns: ns} // want `composite literal \(allocation\)`
}

//lcrq:hotpath
func (q *traced) recordHitLit(id uint64, ns int64, pos int) {
	q.hits[0] = hit{id: id, ns: ns, pos: pos} // want `composite literal \(allocation\)`
	q.hits = [8]hit{}                         // want `composite literal \(allocation\)`
}

// Backoff controller: the multiplicative-increase/additive-decrease
// fail/success steps run inside cell-retry loops, so they must stay pure
// arithmetic on handle-local fields — no allocation, no bookkeeping
// containers.

type ctl struct {
	spins, min, max, decay uint64
	history                []uint64
	byCause                map[string]uint64
}

// fail is the correct MIAD raise shape: double and clamp, nothing else.
//
//lcrq:hotpath
func (c *ctl) fail() {
	if c.spins == 0 {
		c.spins = c.min
	} else {
		c.spins *= 2
	}
	if c.spins > c.max {
		c.spins = c.max
	}
}

// success is the additive-decay counterpart; also clean.
//
//lcrq:hotpath
func (c *ctl) success() {
	if c.spins <= c.decay {
		c.spins = 0
		return
	}
	c.spins -= c.decay
}

// pause is deliberately NOT annotated: chunked backoff yields the
// processor, so hot callers reach it through a plain call.
func (c *ctl) pause() {
	runtime.Gosched()
}

// backoff shows the hot retry path composing the clean raise step with the
// unannotated pause helper — no diagnostics.
//
//lcrq:hotpath
func (c *ctl) backoff() {
	c.fail()
	c.pause()
}

// failLogged is the tempting-but-wrong shape: tracking raise history on
// the retry path means allocation and map traffic per failed attempt.
//
//lcrq:hotpath
func (c *ctl) failLogged(cause string) {
	c.spins *= 2
	c.history = append(c.history, c.spins) // want `append \(allocation\)`
	c.byCause[cause] = c.spins             // want `map write`
}

// drain is NOT annotated: the same operations draw no diagnostics here.
func (q *queue) drain() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.buf = append(q.buf, <-q.ch)
	q.items[0] = 0
	time.Sleep(time.Nanosecond)
	runtime.Gosched()
}

// config is larger than a cache line, like core.Config.
type config struct {
	capacity, maxRings, ringOrder, spin, starve, stride int64
	tune                                                [4]int64
}

// normalized copies the whole config, as core.Config's does.
func (c config) normalized() config { return c }

// bounded re-normalizes a value receiver on every call.
func (c config) bounded() bool {
	n := c.normalized()
	return n.capacity > 0 || n.maxRings > 0
}

// ringSize has a pointer receiver: calling it copies nothing.
func (c *config) ringSize() int64 { return 1 << c.ringOrder }

// small fits in a cache line, so a value receiver is fine.
type small struct{ a, b uint64 }

func (s small) sum() uint64 { return s.a + s.b }

type boundedQueue struct {
	cfg   config
	small small
	full  bool
}

// release is the shape the rule exists for: a per-operation call that
// copies an oversized receiver.
//
//lcrq:hotpath
func (q *boundedQueue) release() {
	if q.cfg.bounded() && q.full { // want `call to value-receiver method config\.bounded in //lcrq:hotpath function release copies its 80-byte receiver on every call`
		q.full = false
	}
	_ = q.cfg.ringSize()
	_ = q.small.sum()
}
