package instrument

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestAddAccumulatesEveryField(t *testing.T) {
	// Fill a Counters with distinct values per field via reflection so this
	// test fails if Add ever skips a field.
	mk := func(base uint64) *Counters {
		c := &Counters{}
		v := reflect.ValueOf(c).Elem()
		for i := 0; i < v.NumField(); i++ {
			v.Field(i).SetUint(base + uint64(i))
		}
		return c
	}
	a, b := mk(100), mk(1000)
	want := &Counters{}
	wv := reflect.ValueOf(want).Elem()
	for i := 0; i < wv.NumField(); i++ {
		wv.Field(i).SetUint(100 + 1000 + 2*uint64(i))
	}
	a.Add(b)
	if !reflect.DeepEqual(a, want) {
		t.Fatalf("Add missed a field:\ngot  %+v\nwant %+v", a, want)
	}
}

func TestAtomicCountersRoundTrip(t *testing.T) {
	// Every Counters field must be uint64: AtomicCounters mirrors the struct
	// field-by-field through atomic.Uint64 slots.
	rt := reflect.TypeOf(Counters{})
	for i := 0; i < rt.NumField(); i++ {
		if rt.Field(i).Type.Kind() != reflect.Uint64 {
			t.Fatalf("Counters.%s is %v, want uint64", rt.Field(i).Name, rt.Field(i).Type)
		}
	}
	c := &Counters{}
	v := reflect.ValueOf(c).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetUint(7 + uint64(i)*13)
	}
	a := NewAtomicCounters()
	a.Store(c)
	got := a.Load()
	if !reflect.DeepEqual(&got, c) {
		t.Fatalf("round trip lost fields:\ngot  %+v\nwant %+v", got, c)
	}
}

func TestOps(t *testing.T) {
	c := Counters{Enqueues: 3, Dequeues: 5}
	if c.Ops() != 8 {
		t.Fatalf("Ops = %d, want 8", c.Ops())
	}
}

func TestAtomicsPerOp(t *testing.T) {
	c := Counters{Enqueues: 5, Dequeues: 5, FetchAdds: 10, CAS2Attempts: 10, CASAttempts: 5, Swaps: 3, TestAndSets: 2}
	if got := c.AtomicsPerOp(); got != 3.0 {
		t.Fatalf("AtomicsPerOp = %v, want 3.0", got)
	}
}

func TestZeroOpsNoDivideByZero(t *testing.T) {
	var c Counters
	if c.AtomicsPerOp() != 0 || c.CASFailuresPerOp() != 0 {
		t.Fatal("expected 0 for empty counters")
	}
}

func TestCASFailuresPerOp(t *testing.T) {
	c := Counters{Enqueues: 2, Dequeues: 2, CASFailures: 3, CAS2Failures: 1}
	if got := c.CASFailuresPerOp(); got != 1.0 {
		t.Fatalf("CASFailuresPerOp = %v, want 1.0", got)
	}
}

func TestAddCommutative(t *testing.T) {
	f := func(a, b Counters) bool {
		x, y := a, b
		x.Add(&b)
		y.Add(&a)
		// y started as b and accumulated a; compare to x (a accumulated b).
		return reflect.DeepEqual(x, y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringIncludesCombinerStats(t *testing.T) {
	c := Counters{Enqueues: 1, CombinerRuns: 2, Combined: 10}
	s := c.String()
	if !strings.Contains(s, "avg-batch=5.0") {
		t.Fatalf("String() = %q, want combiner batch stats", s)
	}
	var zero Counters
	if strings.Contains(zero.String(), "combiner") {
		t.Fatal("zero counters should omit combiner stats")
	}
}
