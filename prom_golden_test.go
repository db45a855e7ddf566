package lcrq

import (
	"bytes"
	"hash/fnv"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// byName derives a field's test value from its name alone, so the golden
// file does not depend on the order fields are declared in.
func byName(name string) uint64 {
	h := fnv.New32a()
	h.Write([]byte(name))
	return uint64(h.Sum32()%1_000_000) + 1
}

// fillByName sets every integer field reachable from v (embedded structs
// included) to byName of its field name, and fails on a value collision.
func fillByName(t *testing.T, v reflect.Value, seen map[uint64]string) {
	t.Helper()
	for _, f := range reflect.VisibleFields(v.Type()) {
		fv := v.FieldByIndex(f.Index)
		var set func(uint64)
		switch fv.Kind() {
		case reflect.Uint64:
			set = fv.SetUint
		case reflect.Int, reflect.Int64:
			set = func(x uint64) { fv.SetInt(int64(x)) }
		default:
			continue
		}
		x := byName(f.Name)
		if prev, dup := seen[x]; dup {
			t.Fatalf("fields %s and %s collide on %d", prev, f.Name, x)
		}
		seen[x] = f.Name
		set(x)
	}
}

// TestPrometheusGolden renders a Metrics snapshot in which every counter
// and gauge carries a distinct value and compares the exposition, line by
// line in sorted order, with testdata/metrics.golden. It pins every series
// name, HELP and TYPE line, and which field feeds which series.
func TestPrometheusGolden(t *testing.T) {
	var m Metrics
	seen := map[uint64]string{}
	fillByName(t, reflect.ValueOf(&m.Stats).Elem(), seen)
	fillByName(t, reflect.ValueOf(&m).Elem(), seen)
	m.Stats.AtomicsPerOp = 2.5
	m.Closed = true
	m.Health = Health{OK: true, Verdict: "ok", Checks: 41}
	m.Enqueue = LatencySummary{Samples: 4, Mean: time.Microsecond, P50: time.Microsecond, P99: 2 * time.Microsecond, P999: 3 * time.Microsecond}
	m.Sojourn = LatencySummary{Samples: 2, Mean: time.Millisecond, P50: time.Millisecond, P99: 5 * time.Millisecond, P999: 7 * time.Millisecond}
	m.DequeueBatch = BatchSummary{Batches: 3, Items: 96, P50: 32, P99: 48}
	m.RingEvents = map[string]uint64{"ring-close": 5, "ring-append": 6}
	m.Chaos = map[string]uint64{"enq-cas2-fail": 9}

	var b bytes.Buffer
	WritePrometheus(&b, m)
	got := strings.Split(strings.TrimSpace(b.String()), "\n")
	sort.Strings(got)

	raw, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("exposition differs from testdata/metrics.golden; got (sorted):\n%s", strings.Join(got, "\n"))
	}
}
