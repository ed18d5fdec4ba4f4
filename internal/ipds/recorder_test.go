package ipds

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/internal/wire"
	"repro/internal/workload"
)

// recorderConfig returns DefaultConfig with forensics enabled at the
// given ring depth and the alarm-storm throttle off, so every alarm
// captures a context (the per-alarm contract the unit tests pin).
func recorderConfig(depth int) Config {
	cfg := DefaultConfig
	cfg.Recorder = depth
	cfg.CtxGap = -1
	return cfg
}

// tamperEvery flips every n-th branch direction of a copied trace.
func tamperEvery(evs []wire.Event, n int) []wire.Event {
	out := make([]wire.Event, len(evs))
	copy(out, evs)
	b := 0
	for i := range out {
		if out[i].Kind != wire.EvBranch {
			continue
		}
		b++
		if b%n == 0 {
			out[i].Taken = !out[i].Taken
		}
	}
	return out
}

// TestRecorderRingWraps drives a machine with a 4-slot recorder through
// inert enters, leaves (one on an empty stack, which records nothing)
// and branches: the window holds the last four events with their
// stream seq and depth, whichever entry point counted them.
func TestRecorderRingWraps(t *testing.T) {
	w, _ := benchTrace(t)
	m := New(w.img, recorderConfig(4))
	br := func(pc uint64, taken bool) wire.Event { return wire.Event{Kind: wire.EvBranch, PC: pc, Taken: taken} }
	m.EnterFunc(unknownBase)
	m.OnBatch([]wire.Event{
		br(0x10, true), br(0x14, false),
		{Kind: wire.EvEnter, PC: unknownBase + 0x100},
		br(0x18, true),
		{Kind: wire.EvLeave},
		br(0x1c, false),
		{Kind: wire.EvLeave}, {Kind: wire.EvLeave},
		br(0x20, true),
	})
	if m.RecorderTotal() != 9 || m.RecorderLive() != 4 {
		t.Fatalf("total = %d live = %d, want 9 and 4", m.RecorderTotal(), m.RecorderLive())
	}
	want := []RecEvent{
		{Seq: 3, Kind: EvLeave, Depth: 1},
		{Seq: 4, PC: 0x1c, Kind: EvBranch, Depth: 1},
		{Seq: 4, Kind: EvLeave, Depth: 0},
		{Seq: 5, PC: 0x20, Kind: EvBranch, Taken: true, Depth: 0},
	}
	got := m.rec.snapshotInto(nil, m.seq)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("window = %+v, want %+v", got, want)
	}
	m.OnBranch(0x24, false)
	want = append(want[1:], RecEvent{Seq: 6, PC: 0x24, Kind: EvBranch})
	// snapshotInto must reuse the destination's capacity.
	again := m.rec.snapshotInto(got[:0], m.seq)
	if &again[0] != &got[0] {
		t.Fatal("snapshotInto reallocated despite sufficient capacity")
	}
	if !reflect.DeepEqual(again, want) {
		t.Fatalf("window after OnBranch = %+v, want %+v", again, want)
	}
	m.Reset()
	if m.RecorderLive() != 0 || m.RecorderTotal() != 0 {
		t.Fatalf("reset left live=%d total=%d", m.RecorderLive(), m.RecorderTotal())
	}
}

// TestRecorderDisabledByDefault: DefaultConfig machines carry no ring
// and capture no contexts — forensics are strictly opt-in.
func TestRecorderDisabledByDefault(t *testing.T) {
	w, evs := benchTrace(t)
	m := New(w.img, DefaultConfig)
	m.OnBatch(tamperEvery(evs, 7))
	if m.Stats().Alarms == 0 {
		t.Fatal("tampered trace raised no alarms")
	}
	if m.RecorderDepth() != 0 || m.RecorderTotal() != 0 {
		t.Fatalf("disabled recorder reports depth=%d total=%d", m.RecorderDepth(), m.RecorderTotal())
	}
	if m.LastContext() != nil || m.Contexts() != nil {
		t.Fatal("disabled recorder captured contexts")
	}
}

// TestAlarmContextCapture is the unit-level forensic contract: the
// context of an alarm names the violating function and branch, ends its
// recent-event window with the violating branch, carries the live
// activation stack and the alarming frame's BSV.
func TestAlarmContextCapture(t *testing.T) {
	w, evs := benchTrace(t)
	bent := tamperEvery(evs, 50)
	m := New(w.img, recorderConfig(32))
	alarms := append([]Alarm(nil), m.OnBatch(bent)...)
	if len(alarms) == 0 {
		t.Fatal("tampered trace raised no alarms")
	}
	if m.RecorderDepth() != 32 {
		t.Fatalf("RecorderDepth = %d, want 32", m.RecorderDepth())
	}
	if m.RecorderTotal() != uint64(len(bent)) {
		t.Fatalf("RecorderTotal = %d, want %d (every committed event recorded)", m.RecorderTotal(), len(bent))
	}

	ctxs := m.Contexts()
	if len(ctxs) == 0 {
		t.Fatal("no contexts captured")
	}
	// The retained contexts are the most recent alarms, in order.
	tail := alarms
	if len(tail) > len(ctxs) {
		tail = tail[len(tail)-len(ctxs):]
	}
	for i, ctx := range ctxs {
		a := tail[i]
		if ctx.Alarm != a {
			t.Fatalf("context %d pairs alarm %+v, want %+v", i, ctx.Alarm, a)
		}
		if len(ctx.Recent) == 0 {
			t.Fatalf("context %d has an empty window", i)
		}
		last := ctx.Recent[len(ctx.Recent)-1]
		if last.Kind != EvBranch || last.PC != a.PC || last.Seq != a.Seq || last.Taken != a.Taken {
			t.Fatalf("context %d window does not end with the violating branch: %+v vs alarm %+v", i, last, a)
		}
		if len(ctx.Stack) == 0 {
			t.Fatalf("context %d has an empty stack summary", i)
		}
		top := ctx.Stack[len(ctx.Stack)-1]
		if top.Func != a.Func {
			t.Fatalf("context %d stack top %q, alarm in %q", i, top.Func, a.Func)
		}
		if fi := w.img.FuncAt(top.Base); fi == nil || fi.Name != a.Func {
			t.Fatalf("context %d stack top base %#x does not resolve to %q", i, top.Base, a.Func)
		}
		if want := w.img.FuncAt(top.Base).NumSlots; len(ctx.BSV) != want {
			t.Fatalf("context %d BSV has %d slots, function has %d", i, len(ctx.BSV), want)
		}
	}

	// ContextFor finds by alarm sequence number; LastContext is the
	// newest capture.
	lastAlarm := alarms[len(alarms)-1]
	if c := m.ContextFor(lastAlarm.Seq); c == nil || c.Alarm != lastAlarm {
		t.Fatalf("ContextFor(%d) = %+v", lastAlarm.Seq, c)
	}
	if c := m.LastContext(); c == nil || c.Alarm != lastAlarm {
		t.Fatalf("LastContext() pairs %+v, want alarm %+v", c, lastAlarm)
	}
	if c := m.ContextFor(lastAlarm.Seq + 999); c != nil {
		t.Fatalf("ContextFor on an unknown seq returned %+v", c)
	}

	// A full window holds exactly the ring depth.
	if lc := m.LastContext(); m.RecorderTotal() > 32 && len(lc.Recent) != 32 {
		t.Fatalf("full window holds %d events, want 32", len(lc.Recent))
	}

	// Reset clears forensic state but keeps the preallocated rings.
	m.Reset()
	if m.LastContext() != nil || m.RecorderTotal() != 0 || m.RecorderLive() != 0 {
		t.Fatal("Reset left forensic state behind")
	}
	if m.RecorderDepth() != 32 {
		t.Fatalf("Reset dropped the ring (depth %d)", m.RecorderDepth())
	}
}

// TestAlarmContextRingBounds: more alarms than AlarmCtxBuffer retains
// only the newest contexts.
func TestAlarmContextRingBounds(t *testing.T) {
	w, evs := benchTrace(t)
	bent := tamperEvery(evs, 7)
	cfg := recorderConfig(16)
	cfg.AlarmCtxBuffer = 3
	m := New(w.img, cfg)
	alarms := append([]Alarm(nil), m.OnBatch(bent)...)
	if len(alarms) <= 3 {
		t.Fatalf("need more than 3 alarms to exercise the ring, got %d", len(alarms))
	}
	ctxs := m.Contexts()
	if len(ctxs) != 3 {
		t.Fatalf("retained %d contexts, want 3", len(ctxs))
	}
	for i, ctx := range ctxs {
		if want := alarms[len(alarms)-3+i]; ctx.Alarm != want {
			t.Fatalf("context %d is for %+v, want %+v", i, ctx.Alarm, want)
		}
	}
	// Overwritten contexts are no longer findable.
	if c := m.ContextFor(alarms[0].Seq); c != nil {
		t.Fatalf("evicted context still findable: %+v", c)
	}
}

// TestRecorderDoesNotChangeVerdicts: forensics are observation only —
// alarms, stats and final machine state are identical with the recorder
// on and off, clean and tampered.
func TestRecorderDoesNotChangeVerdicts(t *testing.T) {
	w, evs := benchTrace(t)
	for name, trace := range map[string][]wire.Event{"clean": evs, "tampered": tamperEvery(evs, 11)} {
		ref := New(w.img, DefaultConfig)
		refAlarms := append([]Alarm(nil), ref.OnBatch(trace)...)
		rec := New(w.img, recorderConfig(64))
		recAlarms := append([]Alarm(nil), rec.OnBatch(trace)...)
		if !reflect.DeepEqual(refAlarms, recAlarms) {
			t.Errorf("%s: alarms diverge with recorder on", name)
		}
		if ref.Stats() != rec.Stats() {
			t.Errorf("%s: stats diverge:\n off %+v\n on  %+v", name, ref.Stats(), rec.Stats())
		}
		if ref.Depth() != rec.Depth() {
			t.Errorf("%s: depth %d != %d", name, rec.Depth(), ref.Depth())
		}
	}
}

// TestCopyIntoReusesCapacity: the daemon's per-session snapshot path
// relies on CopyInto being allocation-free once warmed.
func TestCopyIntoReusesCapacity(t *testing.T) {
	w, evs := benchTrace(t)
	m := New(w.img, recorderConfig(32))
	m.OnBatch(tamperEvery(evs, 7))
	src := m.LastContext()
	if src == nil {
		t.Fatal("no context captured")
	}
	var dst AlarmContext
	src.CopyInto(&dst)
	if !reflect.DeepEqual(*src, dst) {
		t.Fatal("CopyInto did not produce an equal context")
	}
	if n := testing.AllocsPerRun(20, func() { src.CopyInto(&dst) }); n != 0 {
		t.Fatalf("warmed CopyInto allocates %v per run, want 0", n)
	}
}

// collectSink records a machine's sink stream.
func collectSink(m *Machine) *[]Event {
	var out []Event
	m.SetEventSink(FuncSink(func(e Event) { out = append(out, e) }))
	return &out
}

// TestEventSinkBatchedEquivalence pins the documented EventSink
// contract: the per-event path and the batched path publish the same
// event stream — same kinds, order, Seq and Depth — and raise the same
// alarms and Stats, with or without the flight recorder attached.
func TestEventSinkBatchedEquivalence(t *testing.T) {
	w, evs := benchTrace(t)
	bent := tamperEvery(evs, 9)
	for _, cfg := range []Config{DefaultConfig, recorderConfig(64)} {
		perEvent := New(w.img, cfg)
		perStream := collectSink(perEvent)
		perAlarms := replayCollect(perEvent, bent)

		batched := New(w.img, cfg)
		batStream := collectSink(batched)
		batAlarms := batched.OnBatch(bent)

		if !reflect.DeepEqual(*perStream, *batStream) {
			t.Fatalf("recorder=%d: sink streams diverge (%d vs %d events)",
				cfg.Recorder, len(*perStream), len(*batStream))
		}
		if perEvent.Stats() != batched.Stats() {
			t.Fatalf("recorder=%d: stats diverge", cfg.Recorder)
		}
		if !reflect.DeepEqual(perAlarms, batAlarms) {
			t.Fatalf("recorder=%d: returned alarms diverge", cfg.Recorder)
		}
		if cfg.Recorder > 0 && !reflect.DeepEqual(perEvent.Contexts(), batched.Contexts()) {
			t.Fatalf("recorder=%d: captured contexts diverge", cfg.Recorder)
		}
	}
}

// TestAlarmContextStackCap: a machine whose activation stack has grown
// far past MaxContextStack (as looped replays of a trace that never
// returns from its entry function do) still captures contexts, keeps
// only the innermost MaxContextStack frames, and the kept frames end
// with the violating function.
func TestAlarmContextStackCap(t *testing.T) {
	w, evs := benchTrace(t)
	m := New(w.img, recorderConfig(16))
	for i := 0; i < MaxContextStack+50; i++ {
		m.EnterFunc(0xdead_0000 + uint64(i)) // inert library activations
	}
	m.OnBatch(tamperEvery(evs, 50))
	ctx := m.LastContext()
	if ctx == nil {
		t.Fatal("no context captured")
	}
	if len(ctx.Stack) != MaxContextStack {
		t.Fatalf("stack summary has %d frames, want the cap %d", len(ctx.Stack), MaxContextStack)
	}
	if top := ctx.Stack[len(ctx.Stack)-1]; top.Func != ctx.Alarm.Func {
		t.Fatalf("capped stack top = %q, want violating function %q", top.Func, ctx.Alarm.Func)
	}
}

// TestAlarmContextThrottle: with the default CtxGap an alarm storm is
// counted in full but snapshotted sparsely — captures happen at most
// once per gap of branch sequence, and a sparse alarm (first of a
// storm, or any alarm after a quiet stretch) always captures.
func TestAlarmContextThrottle(t *testing.T) {
	w, evs := benchTrace(t)
	cfg := DefaultConfig
	cfg.Recorder = 16 // CtxGap 0 -> DefaultCtxGap
	m := New(w.img, cfg)
	bent := tamperEvery(evs, 3) // dense flood
	alarms := append([]Alarm(nil), m.OnBatch(bent)...)
	if len(alarms) < 4 {
		t.Fatalf("flood raised only %d alarms", len(alarms))
	}
	ctxs := m.Contexts()
	if len(ctxs) == 0 {
		t.Fatal("throttle suppressed every capture (first alarm must capture)")
	}
	if ctxs[0].Alarm != alarms[0] {
		t.Fatalf("first capture = %+v, want the storm's first alarm %+v", ctxs[0].Alarm, alarms[0])
	}
	// Every captured pair is at least a gap apart; alarms were denser.
	for i := 1; i < len(ctxs); i++ {
		if d := ctxs[i].Alarm.Seq - ctxs[i-1].Alarm.Seq; d < DefaultCtxGap {
			t.Fatalf("captures %d and %d only %d apart (gap %d)", i-1, i, d, DefaultCtxGap)
		}
	}
	if len(ctxs) >= len(alarms) {
		t.Fatalf("throttle captured %d contexts for %d alarms", len(ctxs), len(alarms))
	}

	// CtxGap < 0 turns the throttle off: one context per alarm.
	off := New(w.img, recorderConfig(16))
	offAlarms := append([]Alarm(nil), off.OnBatch(bent)...)
	want := len(offAlarms)
	if want > len(off.Contexts()) && len(off.Contexts()) == cap(off.ctxBuf) {
		want = cap(off.ctxBuf)
	}
	if got := len(off.Contexts()); got != want && got != DefaultAlarmCtxBuffer {
		t.Fatalf("throttle-off captured %d contexts for %d alarms", got, len(offAlarms))
	}
}

// eagerRef is the test-only reference flight recorder: every event
// stored as it is counted. It rebuilds the stream from the input
// events plus the machine's published enter/leave/spill/fill events: a
// branch takes its seq from a running count and its depth from the
// last stack event, and a stack event published at seq s sits after
// branch s and before branch s+1.
type eagerRef struct {
	all   []RecEvent
	at    []int // at[s-1]: len(all) right after branch s
	seq   uint64
	depth int32
	stack *[]Event
	next  int    // first stack event of *stack not yet folded in
	seen  uint64 // contexts already checked (Machine.CtxCaptured)
}

func newEagerRef(m *Machine) *eagerRef { return &eagerRef{stack: collectSink(m)} }

func (r *eagerRef) foldStack(upto uint64) {
	for ; r.next < len(*r.stack) && (*r.stack)[r.next].Seq <= upto; r.next++ {
		e := (*r.stack)[r.next]
		r.all = append(r.all, RecEvent{Seq: e.Seq, PC: e.Base, Kind: e.Kind, Depth: int32(e.Depth), Bits: int32(e.Bits)})
		r.depth = int32(e.Depth)
	}
}

// advance folds in the input events a machine call just processed and
// the stack events it published.
func (r *eagerRef) advance(evs []wire.Event) {
	for _, ev := range evs {
		if ev.Kind != wire.EvBranch {
			continue
		}
		r.foldStack(r.seq)
		r.seq++
		r.all = append(r.all, RecEvent{Seq: r.seq, PC: ev.PC, Kind: EvBranch, Taken: ev.Taken, Depth: r.depth})
		r.at = append(r.at, len(r.all))
	}
	r.foldStack(^uint64(0))
}

// window returns the last depth events recorded after the first n.
func (r *eagerRef) window(n, depth int) []RecEvent {
	return r.all[max(0, n-depth):n]
}

// check holds m's recorder to the reference after a call: total, live
// count, the current window, and the window and recorded count of
// every context captured since the last check.
func (r *eagerRef) check(t testing.TB, m *Machine, what string) {
	t.Helper()
	depth := m.RecorderDepth()
	if got := m.RecorderTotal(); got != uint64(len(r.all)) {
		t.Fatalf("%s: RecorderTotal %d, eager %d", what, got, len(r.all))
	}
	if got := m.RecorderLive(); got != min(depth, len(r.all)) {
		t.Fatalf("%s: RecorderLive %d, eager %d", what, got, min(depth, len(r.all)))
	}
	if got, want := m.rec.snapshotInto(nil, m.seq), r.window(len(r.all), depth); !equalWindows(got, want) {
		t.Fatalf("%s: window diverges from eager recording\n got  %+v\n want %+v", what, got, want)
	}
	fresh := int(min(uint64(m.ContextCount()), m.CtxCaptured()-r.seen))
	r.seen = m.CtxCaptured()
	for i := m.ContextCount() - fresh; i < m.ContextCount(); i++ {
		c := m.ContextAt(i)
		n := r.at[c.Alarm.Seq-1]
		if c.Recorded != uint64(n) || !equalWindows(c.Recent, r.window(n, depth)) {
			t.Fatalf("%s: context for alarm %d diverges from eager recording\n got  %d %+v\n want %d %+v",
				what, c.Alarm.Seq, c.Recorded, c.Recent, n, r.window(n, depth))
		}
	}
}

func equalWindows(a, b []RecEvent) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// checkRecorder drives trace through two recorder machines — one call
// per event, and OnBatch at batch size bs — holding each to the eager
// reference after every call, and the two to each other (contexts,
// totals, windows) at every batch boundary.
func checkRecorder(t testing.TB, m1, mb *Machine, trace []wire.Event, bs int) {
	t.Helper()
	r1, rb := newEagerRef(m1), newEagerRef(mb)
	for lo := 0; lo < len(trace); lo += bs {
		hi := min(lo+bs, len(trace))
		for i := lo; i < hi; i++ {
			ev := trace[i]
			switch ev.Kind {
			case wire.EvBranch:
				m1.OnBranch(ev.PC, ev.Taken)
			case wire.EvEnter:
				m1.EnterFunc(ev.PC)
			case wire.EvLeave:
				m1.LeaveFunc()
			}
			r1.advance(trace[i : i+1])
			r1.check(t, m1, fmt.Sprintf("per-event %d", i))
		}
		mb.OnBatch(trace[lo:hi])
		rb.advance(trace[lo:hi])
		rb.check(t, mb, fmt.Sprintf("batch [%d,%d)", lo, hi))
		if m1.RecorderTotal() != mb.RecorderTotal() || m1.RecorderLive() != mb.RecorderLive() ||
			!reflect.DeepEqual(m1.Contexts(), mb.Contexts()) {
			t.Fatalf("batch [%d,%d): per-event and batched recorders diverge", lo, hi)
		}
	}
}

// tinyTables shrinks the on-chip table buffers so that nearly every
// nested call spills its caller and every return fills it: spill and
// fill entries then land inside recorder windows.
var tinyTables = Config{BSVStackBits: 8, BCVStackBits: 8, BATStackBits: 64}

// TestRecorderMatchesEager holds the deferred recorder to the eager
// reference on every workload's tampered attack session, malformed
// variants included, across ring depths (3 rounds up to 4) and batch
// sizes, with every alarm captured.
func TestRecorderMatchesEager(t *testing.T) {
	for _, w := range workload.All() {
		art, err := pipeline.Compile(w.Source, ir.DefaultOptions)
		if err != nil {
			t.Fatalf("%s: compile: %v", w.Name, err)
		}
		clean, _ := captureTrace(art.Prog, w.AttackSession)
		bent := tamperEvery(clean, 5)
		strict := DefaultConfig
		strict.Strict = true
		for _, c := range []struct {
			name string
			cfg  Config
			evs  []wire.Event
		}{
			{"tamper5", DefaultConfig, bent},
			{"malformed", DefaultConfig, malform(bent, 53)},
			{"malformed-strict", strict, malform(bent, 53)},
			{"tiny-tables", tinyTables, bent},
		} {
			for _, depth := range []int{1, 3, 64} {
				for _, bs := range []int{1, 7, 512} {
					t.Run(fmt.Sprintf("%s/%s/depth=%d/batch=%d", w.Name, c.name, depth, bs), func(t *testing.T) {
						cfg := c.cfg
						cfg.Recorder, cfg.CtxGap = depth, -1
						m1, mb := New(art.Image, cfg), New(art.Image, cfg)
						checkRecorder(t, m1, mb, c.evs, bs)
						if m1.CtxCaptured() == 0 {
							t.Fatal("no context captured; the comparison is vacuous")
						}
						if c.name == "tiny-tables" && m1.Stats().SpillEvents == 0 {
							t.Fatal("tiny tables never spilled")
						}
					})
				}
			}
		}
	}
}

// TestRecorderPendingBounded feeds wire.MaxBatch-event batches of three
// shapes — alternating enters and leaves that spill and fill on every
// event, one long branch run, and a mixed trace split at odd sizes —
// and asserts that the pending stack entries never outgrow the ring
// depth (sampled at every published stack event, mid-batch), that the
// recorder's storage is the same two preallocated rings afterwards,
// that the windows match eager recording, and that a warmed machine
// records all three shapes without allocating.
func TestRecorderPendingBounded(t *testing.T) {
	w, evs := benchTrace(t)
	f := w.img.Funcs[0]
	enterLeave := []wire.Event{{Kind: wire.EvEnter, PC: f.Base}}
	for len(enterLeave) < wire.MaxBatch {
		enterLeave = append(enterLeave, wire.Event{Kind: wire.EvEnter, PC: f.Base}, wire.Event{Kind: wire.EvLeave})
	}
	run := []wire.Event{{Kind: wire.EvEnter, PC: f.Base}}
	for i := 0; len(run) < wire.MaxBatch; i++ {
		run = append(run, wire.Event{Kind: wire.EvBranch, PC: f.Base + 4*uint64(i%64), Taken: i%3 == 0})
	}
	var mix []wire.Event
	for len(mix) < wire.MaxBatch {
		mix = append(mix, evs...)
	}
	mix = mix[:wire.MaxBatch]
	shapes := []struct {
		name  string
		evs   []wire.Event
		sizes []int
	}{
		{"enter-leave", enterLeave, []int{wire.MaxBatch}},
		{"branch-run", run, []int{wire.MaxBatch}},
		{"mix", mix, []int{4093, 1, 511, 7, 65521}},
	}
	// batches splits s at the given sizes, cycling through them.
	batches := func(s []wire.Event, sizes []int) [][]wire.Event {
		var out [][]wire.Event
		for k := 0; len(s) > 0; k++ {
			n := min(sizes[k%len(sizes)], len(s))
			out = append(out, s[:n])
			s = s[n:]
		}
		return out
	}

	cfg := tinyTables
	cfg.Recorder = DefaultRecorderDepth
	m := New(w.img, cfg)
	buf, pend := &m.rec.buf[0], &m.rec.pend[0]
	var stack []Event
	high := 0
	m.SetEventSink(FuncSink(func(e Event) {
		high = max(high, m.rec.pN)
		stack = append(stack, e)
	}))
	ref := &eagerRef{stack: &stack}
	for _, s := range shapes {
		for _, b := range batches(s.evs, s.sizes) {
			m.OnBatch(b)
			ref.advance(b)
			ref.check(t, m, s.name)
			if m.rec.pN != 0 {
				t.Fatalf("%s: %d stack entries still pending after OnBatch", s.name, m.rec.pN)
			}
		}
		if high > len(m.rec.buf) {
			t.Fatalf("%s: %d pending stack entries, ring depth %d", s.name, high, len(m.rec.buf))
		}
		if len(m.rec.buf) != DefaultRecorderDepth || len(m.rec.pend) != DefaultRecorderDepth ||
			&m.rec.buf[0] != buf || &m.rec.pend[0] != pend {
			t.Fatalf("%s: recorder storage changed (ring %d, pending %d)", s.name, len(m.rec.buf), len(m.rec.pend))
		}
	}
	if high != DefaultRecorderDepth {
		t.Fatalf("pending high-water %d: the enter-leave batch never filled the pending ring", high)
	}
	if m.Stats().SpillEvents == 0 || m.Stats().FillEvents == 0 {
		t.Fatal("enter-leave batch neither spilled nor filled")
	}

	q := New(w.img, cfg)
	for _, s := range shapes {
		bs := batches(s.evs, s.sizes)
		pass := func() {
			q.Reset() // the shapes are unbalanced; keep the stack from growing
			for _, b := range bs {
				q.OnBatch(b)
			}
		}
		pass()
		if n := testing.AllocsPerRun(3, pass); n != 0 {
			t.Errorf("%s: warmed recorder machine allocates %v per pass, want 0", s.name, n)
		}
	}
}

// TestForensicRingsFixedAcrossFlood: the flight recorder and the
// alarm-context ring are sized once, at New, and an alarm flood that
// captures a context for every alarm and overwrites the context ring
// many times over neither grows nor reallocates either: the recorder's
// ring and pending ring keep their storage, each context slot's
// window, stack and BSV copies stop growing once warm, and further
// flood passes allocate nothing.
func TestForensicRingsFixedAcrossFlood(t *testing.T) {
	w, evs := benchTrace(t)
	bent := tamperEvery(evs, 5)
	m := New(w.img, recorderConfig(DefaultRecorderDepth))
	buf, pend, ctxs := &m.rec.buf[0], &m.rec.pend[0], &m.ctxBuf[0]
	sizes := [3]int{len(m.rec.buf), len(m.rec.pend), len(m.ctxBuf)}
	// slotCaps sums every context slot's slice capacities.
	slotCaps := func() (n int) {
		for i := range m.ctxBuf {
			c := &m.ctxBuf[i]
			n += cap(c.Recent) + cap(c.Stack) + cap(c.BSV)
		}
		return n
	}
	for range 4 {
		m.OnBatch(bent)
	}
	warm, captured := slotCaps(), m.CtxCaptured()
	if captured <= uint64(3*len(m.ctxBuf)) {
		t.Fatalf("warm-up captured %d contexts; the ring of %d was not overwritten", captured, len(m.ctxBuf))
	}
	if n := testing.AllocsPerRun(50, func() { m.OnBatch(bent) }); n != 0 {
		t.Fatalf("a flood pass allocates %.1f times with forensics on, want 0", n)
	}
	if got := [3]int{len(m.rec.buf), len(m.rec.pend), len(m.ctxBuf)}; got != sizes {
		t.Fatalf("recorder/pending/context ring sizes %v after the flood, want %v", got, sizes)
	}
	if &m.rec.buf[0] != buf || &m.rec.pend[0] != pend || &m.ctxBuf[0] != ctxs {
		t.Fatal("a forensic ring was reallocated during the flood")
	}
	if got := slotCaps(); got != warm {
		t.Fatalf("context slots grew from %d to %d elements of capacity", warm, got)
	}
	for i := range m.ctxBuf {
		if c := &m.ctxBuf[i]; len(c.Recent) > len(m.rec.buf) || len(c.Stack) > MaxContextStack {
			t.Fatalf("context %d holds %d recent events and %d frames, past the %d-event window or the %d-frame stack cap",
				i, len(c.Recent), len(c.Stack), len(m.rec.buf), MaxContextStack)
		}
	}
	t.Logf("%d alarms captured %d contexts into a %d-slot ring", m.Stats().Alarms, m.CtxCaptured(), len(m.ctxBuf))
}
