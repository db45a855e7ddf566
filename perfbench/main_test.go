package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// history feeds each consumer its values and verifies the result against
// per-producer counts.
func history(produced []uint64, consumers ...[]uint64) error {
	base := []uint64{100, 7}
	var logs []*consumerLog
	for _, vs := range consumers {
		l := newConsumerLog(base)
		for _, v := range vs {
			l.observe(v)
		}
		logs = append(logs, l)
	}
	return verify(produced, logs)
}

func TestCheckerAcceptsExactlyOnceFIFO(t *testing.T) {
	// Two producers of 3 and 2 items, interleaved across two consumers,
	// each consumer seeing each producer in order.
	a := []uint64{value(0, 100), value(1, 7), value(0, 102)}
	b := []uint64{value(0, 101), value(1, 8)}
	if err := history([]uint64{3, 2}, a, b); err != nil {
		t.Fatalf("clean history rejected: %v", err)
	}
}

func TestCheckerCatchesViolations(t *testing.T) {
	for _, tc := range []struct {
		name      string
		produced  []uint64
		consumers [][]uint64
		want      string
	}{
		{"dropped", []uint64{3, 0},
			[][]uint64{{value(0, 100), value(0, 102)}}, "first lost item 1"},
		{"dropped-last", []uint64{3, 0},
			[][]uint64{{value(0, 100), value(0, 101)}}, "first lost item 2"},
		{"duplicated-across-consumers", []uint64{2, 0},
			[][]uint64{{value(0, 100), value(0, 101)}, {value(0, 101)}}, "delivered twice"},
		{"duplicated-in-one-consumer", []uint64{2, 0},
			[][]uint64{{value(0, 100), value(0, 101), value(0, 101)}}, "duplicated or reordered"},
		{"reordered", []uint64{3, 0},
			[][]uint64{{value(0, 100), value(0, 102), value(0, 101)}}, "duplicated or reordered"},
		{"never-enqueued", []uint64{1, 0},
			[][]uint64{{value(0, 100), value(0, 101)}}, "never enqueued"},
		{"unknown-producer", []uint64{1, 0},
			[][]uint64{{value(0, 100), value(5, 1)}}, "never produced"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := history(tc.produced, tc.consumers...)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// declared returns the metric names BENCHMARK.json declares in a section.
func declared(t *testing.T, section string) []string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b map[string]json.RawMessage
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name, Unit string }
	if err := json.Unmarshal(b[section], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name+" "+m.Unit)
	}
	slices.Sort(names)
	return names
}

// TestSmoke runs every workload briefly in both modes and checks that the
// run is correct and reports exactly the metrics BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	for _, name := range []string{"pairs", "backlog", "service"} {
		for _, trace := range []bool{false, true} {
			mode := map[bool]string{false: "end_to_end", true: "per_layer"}[trace]
			t.Run(name+"/"+mode, func(t *testing.T) {
				o := newOptions(name, 7, 1, trace)
				o.d, o.warmup = 400*time.Millisecond, 40*time.Millisecond
				o.setups, o.fill, o.ladderSlice = 2, 1<<12, 2*time.Millisecond
				o.spans = filepath.Join(t.TempDir(), "spans.jsonl")
				res, err := run(o, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted == 0 {
					t.Fatalf("result %+v", res)
				}
				var got []string
				for n, m := range res.Metrics {
					got = append(got, n+" "+m.Unit)
				}
				slices.Sort(got)
				if want := declared(t, mode); !slices.Equal(got, want) {
					t.Fatalf("metrics\n got %v\nwant %v", got, want)
				}
				if trace {
					if _, err := os.Stat(o.spans); err != nil {
						t.Fatalf("spans not written: %v", err)
					}
				}
			})
		}
	}
}

// TestWindowsFoldShortTail checks that a service run's windows cover the
// producer's whole sending time and that a short last window joins the
// one before it.
func TestWindowsFoldShortTail(t *testing.T) {
	t0 := time.Unix(0, 0)
	ms := []mark{
		{t0, 0, 0},
		{t0.Add(serviceWindow), 100, 90},
		{t0.Add(2 * serviceWindow), 200, 195},
		{t0.Add(2*serviceWindow + serviceWindow/4), 230, 230},
	}
	ps := windows(ms)
	if len(ps) != 2 {
		t.Fatalf("%d windows, want 2", len(ps))
	}
	last := ps[1]
	if last.wall != serviceWindow+serviceWindow/4 || last.enqItems != 130 || last.items != 140 {
		t.Fatalf("last window %+v", last)
	}
	if s := sum(ps); s.enqItems != 230 || s.items != 230 || s.wall != 2*serviceWindow+serviceWindow/4 {
		t.Fatalf("windows sum to %+v", s)
	}
}
