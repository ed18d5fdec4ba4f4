package ipds

import (
	"testing"

	"repro/internal/vm"
	"repro/internal/wire"
)

// benchSrc is a branch-heavy guarded program: a loop whose body mixes
// checked correlated branches (the `mode` pair), a BAT-killing
// redefinition, and cross-call traffic, so the captured trace exercises
// verify hits, BAT walks and enter/leave table-stack churn — the same
// mix the daemon sees, not a synthetic best case.
const benchSrc = `
int mode;
int acc;
void bump() {
	if (acc > 50) {
		acc = acc - 1;
	}
}
int main() {
	int i;
	mode = read_int();
	acc = 0;
	i = 0;
	while (i < 64) {
		if (mode == 1) {
			acc = acc + 3;
		}
		bump();
		if (mode == 1) {
			acc = acc + 1;
		}
		if (acc > 100) {
			mode = 2;
		}
		if (mode == 2) {
			acc = acc + 2;
		}
		i = i + 1;
	}
	print_int(acc);
	return 0;
}`

// benchTrace compiles benchSrc and captures its clean branch-event
// stream (the wire form a daemon would receive).
func benchTrace(tb testing.TB) (*world, []wire.Event) {
	tb.Helper()
	w := buildWorld(tb, benchSrc)
	evs, res := captureTrace(w.prog, []string{"1"})
	if res.Status != vm.Exited {
		tb.Fatalf("trace program did not exit cleanly: %v", res.Status)
	}
	if len(evs) < 256 {
		tb.Fatalf("trace too small to benchmark: %d events", len(evs))
	}
	return w, evs
}

// replayPerEvent drives evs through the per-event entry points,
// returning the alarm count and the summed per-branch cost (the
// paper's 1 + BAT-walk accesses per event).
func replayPerEvent(m *Machine, evs []wire.Event) (alarms, cost int) {
	for i := range evs {
		ev := &evs[i]
		switch ev.Kind {
		case wire.EvBranch:
			a, c := m.OnBranch(ev.PC, ev.Taken)
			if a != nil {
				alarms++
			}
			cost += c
		case wire.EvEnter:
			m.EnterFunc(ev.PC)
		case wire.EvLeave:
			m.LeaveFunc()
		}
	}
	return alarms, cost
}

// BenchmarkOnBranch measures the per-event kernel: one OnBranch (or
// enter/leave) call per trace event on a warmed machine.
func BenchmarkOnBranch(b *testing.B) {
	w, evs := benchTrace(b)
	m := New(w.img, DefaultConfig)
	replayPerEvent(m, evs) // warm the activation arena
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replayPerEvent(m, evs)
	}
	b.StopTimer()
	reportEventRate(b, len(evs))
}

// BenchmarkOnBatch measures the batched kernel over the same trace,
// split into daemon-sized batches.
func BenchmarkOnBatch(b *testing.B) {
	w, evs := benchTrace(b)
	const batch = 512
	m := New(w.img, DefaultConfig)
	m.OnBatch(evs) // warm arena + result buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rest := evs
		for len(rest) > 0 {
			n := batch
			if n > len(rest) {
				n = len(rest)
			}
			m.OnBatch(rest[:n])
			rest = rest[n:]
		}
	}
	b.StopTimer()
	reportEventRate(b, len(evs))
}

// BenchmarkOnBatchRecorder is BenchmarkOnBatch with the flight recorder
// enabled at its default depth — the daemon's forensic configuration.
// checkallocs.sh gates it to 0 allocs/op alongside the other kernels,
// and comparing its ns/event against BenchmarkOnBatch bounds the
// recorder tax.
func BenchmarkOnBatchRecorder(b *testing.B) {
	w, evs := benchTrace(b)
	const batch = 512
	cfg := DefaultConfig
	cfg.Recorder = DefaultRecorderDepth
	m := New(w.img, cfg)
	m.OnBatch(evs) // warm arena + result buffer + recorder ring
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rest := evs
		for len(rest) > 0 {
			n := batch
			if n > len(rest) {
				n = len(rest)
			}
			m.OnBatch(rest[:n])
			rest = rest[n:]
		}
	}
	b.StopTimer()
	reportEventRate(b, len(evs))
}

func reportEventRate(b *testing.B, eventsPerIter int) {
	total := float64(eventsPerIter) * float64(b.N)
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(total/s, "events/s")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/event")
}

// TestOnBatchZeroAlloc is the hot-path allocation gate: after one
// warming batch (arena + result-buffer growth), feeding the machine
// further batches must perform zero heap allocations, alarms included.
func TestOnBatchZeroAlloc(t *testing.T) {
	w, evs := benchTrace(t)

	// Clean stream: verify-and-update only.
	m := New(w.img, DefaultConfig)
	m.OnBatch(evs)
	if allocs := testing.AllocsPerRun(10, func() { m.OnBatch(evs) }); allocs != 0 {
		t.Errorf("clean OnBatch allocates %.1f per batch, want 0", allocs)
	}

	// Tampered stream: every alarm path (ring push, result append) must
	// stay allocation-free too once the result buffer has grown.
	bent := make([]wire.Event, len(evs))
	copy(bent, evs)
	flipped := 0
	for i := range bent {
		if bent[i].Kind == wire.EvBranch && i%7 == 0 {
			bent[i].Taken = !bent[i].Taken
			flipped++
		}
	}
	if flipped == 0 {
		t.Fatal("trace has no branches to tamper")
	}
	mt := New(w.img, DefaultConfig)
	if alarms := mt.OnBatch(bent); len(alarms) == 0 {
		t.Fatal("tampered batch raised no alarms; gate would not cover the alarm path")
	}
	if allocs := testing.AllocsPerRun(10, func() { mt.OnBatch(bent) }); allocs != 0 {
		t.Errorf("alarming OnBatch allocates %.1f per batch, want 0", allocs)
	}

	// Flight recorder on, tampered stream, storm throttle off (the
	// harshest capture rate): every ring fill and every per-alarm
	// captureContext (ring snapshot, stack summary, BSV copy) must
	// reuse its preallocated slot slices once warmed.
	rcfg := DefaultConfig
	rcfg.Recorder = DefaultRecorderDepth
	rcfg.CtxGap = -1
	mr := New(w.img, rcfg)
	if alarms := mr.OnBatch(bent); len(alarms) == 0 {
		t.Fatal("tampered batch raised no alarms on the recorder machine")
	}
	if mr.LastContext() == nil {
		t.Fatal("recorder machine captured no context; gate would not cover capture")
	}
	if allocs := testing.AllocsPerRun(10, func() { mr.OnBatch(bent) }); allocs != 0 {
		t.Errorf("recorder-enabled OnBatch allocates %.1f per batch, want 0", allocs)
	}
}
