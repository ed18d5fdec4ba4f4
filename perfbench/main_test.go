package main

import (
	"math/rand"
	"strings"
	"testing"
)

// TestTinyRuns runs each workload with a sliver of work, untraced and
// traced, and checks that the correctness checks pass and that every
// end-to-end and per-layer metric is printed by name with its unit.
func TestTinyRuns(t *testing.T) {
	for _, w := range workloads {
		for _, tracing := range []bool{false, true} {
			var out strings.Builder
			res, err := run(&out, w, 7, 0.05, tracing)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, tracing, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s",
					w.name, tracing, res.Correct, res.Attempted, res.Failed, out.String())
			}
			want := map[string]string{}
			if tracing {
				for _, m := range layerMetrics {
					want[m.name] = m.unit
				}
			} else {
				for _, m := range e2eMetrics {
					want[m.name] = m.unit
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, tracing, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok || m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, tracing, name, m, unit)
				}
				if !strings.Contains(out.String(), name) {
					t.Errorf("%s trace=%v: metric %s not printed", w.name, tracing, name)
				}
			}
			positive := []string{"ack_p50_us", "detect_p50_us"}
			if !tracing {
				positive = []string{"events_per_s", "cpu_ns_per_event", "heap_mb", "setup_s"}
			}
			for _, name := range positive {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("%s trace=%v: %s = %v, want > 0", w.name, tracing, name, res.Metrics[name].Value)
				}
			}
		}
	}
}

// TestSeedKeepsWork checks that a seed changes flip positions and
// trace offsets but not the amount of work.
func TestSeedKeepsWork(t *testing.T) {
	traces, err := captureTraces()
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range traces {
		a := newStream(tr, rand.New(rand.NewSource(1)), 0.01)
		b := newStream(tr, rand.New(rand.NewSource(2)), 0.01)
		if len(a.block) != len(b.block) || a.blockBranches != b.blockBranches {
			t.Errorf("%s: seeds change the block: %d/%d vs %d/%d events/branches",
				servers[i], len(a.block), a.blockBranches, len(b.block), b.blockBranches)
		}
		if a.maxDepth > 3 {
			t.Errorf("%s: max depth %d, want a bounded stack", servers[i], a.maxDepth)
		}
	}
}
