package msqueue

import "testing"

// TestEnqueueHelpsStalledTailSwing reproduces the half-finished enqueue
// state (node linked, tail not yet swung) that normally needs a preemption
// at exactly the wrong moment, and checks that the next enqueuer helps.
func TestEnqueueHelpsStalledTailSwing(t *testing.T) {
	q := New()
	h := &Handle{}
	// Simulate a stalled enqueuer: its node is linked behind the tail but
	// the tail pointer still points at the dummy.
	stalled := &node{v: 1}
	q.tail.Load().next.Store(stalled)

	q.Enqueue(h, 2) // must first swing the tail to `stalled`, then link
	if h.C.CASAttempts < 2 {
		t.Fatalf("helping enqueue issued %d CASes, expected at least 2", h.C.CASAttempts)
	}
	if v, ok := q.Dequeue(h); !ok || v != 1 {
		t.Fatalf("got (%d,%v), want stalled node first", v, ok)
	}
	if v, ok := q.Dequeue(h); !ok || v != 2 {
		t.Fatalf("got (%d,%v), want 2", v, ok)
	}
	if _, ok := q.Dequeue(h); ok {
		t.Fatal("queue should be empty")
	}
}

// TestDequeueHelpsStalledTailSwing covers the dequeue-side helping branch:
// head == tail but next is non-nil.
func TestDequeueHelpsStalledTailSwing(t *testing.T) {
	q := New()
	h := &Handle{}
	stalled := &node{v: 7}
	q.tail.Load().next.Store(stalled)

	v, ok := q.Dequeue(h)
	if !ok || v != 7 {
		t.Fatalf("got (%d,%v), want (7,true)", v, ok)
	}
	// The help must have swung the tail too, so the queue is consistent.
	if q.head.Load() != q.tail.Load() {
		t.Fatal("head and tail should coincide on the new dummy")
	}
}
