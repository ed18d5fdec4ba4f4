package server_test

import (
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/ipds"
	"repro/internal/ipdsclient"
	"repro/internal/server"
	"repro/internal/wire"
)

// replayCollectContexts replays a trace per-event through a local
// recorder-enabled machine, converting each fresh capture to wire form
// as it happens — before the shallow context ring can overwrite it —
// exactly as the daemon's capture-driven session loop does per batch.
func replayCollectContexts(m *ipds.Machine, evs []wire.Event) (alarms []ipds.Alarm, ctxs []wire.AlarmCtx) {
	var seen uint64
	for _, ev := range evs {
		switch ev.Kind {
		case wire.EvEnter:
			m.EnterFunc(ev.PC)
		case wire.EvLeave:
			m.LeaveFunc()
		case wire.EvBranch:
			if a, _ := m.OnBranch(ev.PC, ev.Taken); a != nil {
				alarms = append(alarms, *a)
			}
			if tot := m.CtxCaptured(); tot != seen {
				fresh := int(tot - seen)
				seen = tot
				if n := m.ContextCount(); fresh > n {
					fresh = n
				}
				for i := m.ContextCount() - fresh; i < m.ContextCount(); i++ {
					ctxs = append(ctxs, ipdsclient.WireContext(m.ContextAt(i)))
				}
			}
		}
	}
	return alarms, ctxs
}

// TestForensicsE2E is the PR's acceptance path: a tampered trace served
// by a live daemon produces, for every alarm, an AlarmCtx frame whose
// recent-event window ends with the violating branch, whose stack names
// the violating function, and which is value-identical to what an
// in-process machine with the same recorder configuration captures —
// the forensic analogue of the alarm-equivalence golden test.
func TestForensicsE2E(t *testing.T) {
	// Storm throttle off on both sides: the test traffic is a dense
	// tamper, and the contract under test is per-alarm equivalence.
	scfg := ipds.DefaultConfig
	scfg.CtxGap = -1
	w := startWorld(t, server.Config{IPDS: scfg})
	trace := ipdsclient.Tamper(ipdsclient.Capture(w.art, nil), 5)
	// Loop the trace so later alarms carry full recorder windows
	// (>= 32 events), per the acceptance criteria.
	var long []wire.Event
	for i := 0; i < 3; i++ {
		long = append(long, trace...)
	}

	refCfg := scfg
	refCfg.Recorder = ipds.DefaultRecorderDepth
	refM := ipds.New(w.art.Image, refCfg)
	refAlarms, refCtxs := replayCollectContexts(refM, long)
	if len(refAlarms) == 0 {
		t.Fatal("tampered trace raised no reference alarms; test is vacuous")
	}
	if len(refCtxs) != len(refAlarms) {
		t.Fatalf("local machine captured %d contexts for %d alarms", len(refCtxs), len(refAlarms))
	}

	c, err := ipdsclient.Dial(ipdsclient.Config{Addr: w.addr, Image: w.hash, Program: "forensics", Batch: 8})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if err := c.Send(long...); err != nil {
		t.Fatalf("send: %v", err)
	}
	if err := c.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}

	requireAlarmsEqual(t, refAlarms, c.Alarms())
	got := c.AlarmContexts()
	if len(got) != len(refCtxs) {
		t.Fatalf("daemon delivered %d contexts, local machine captured %d", len(got), len(refCtxs))
	}
	if !reflect.DeepEqual(got, refCtxs) {
		for i := range got {
			if !reflect.DeepEqual(got[i], refCtxs[i]) {
				t.Fatalf("context %d diverges between daemon and in-process machine:\n got  %+v\n want %+v",
					i, got[i], refCtxs[i])
			}
		}
	}

	// Each context identifies its alarm: paired by Seq, the window ends
	// with the violating branch, the stack bottoms out in the violating
	// function's activation.
	alarms := c.Alarms()
	fullWindows := 0
	for i, ctx := range got {
		a := alarms[i]
		if ctx.Seq != a.Seq {
			t.Fatalf("context %d pairs seq %d, alarm has %d", i, ctx.Seq, a.Seq)
		}
		if len(ctx.Recent) == 0 {
			t.Fatalf("context %d has an empty window", i)
		}
		last := ctx.Recent[len(ctx.Recent)-1]
		wantKind := wire.EvBranch
		if last.Kind != wantKind || last.PC != a.PC || last.Taken != a.Taken || last.Seq != a.Seq {
			t.Fatalf("context %d window does not end with the violating branch: %+v vs alarm %+v", i, last, a)
		}
		if len(ctx.Stack) == 0 || ctx.Stack[len(ctx.Stack)-1].Func != a.Func {
			t.Fatalf("context %d stack does not top out in %q: %+v", i, a.Func, ctx.Stack)
		}
		if len(ctx.Recent) >= 32 {
			fullWindows++
		}
	}
	if fullWindows == 0 {
		t.Fatal("no context carried >= 32 recent events; looped trace should fill the window")
	}
	if got := w.reg.Counter("server_alarm_ctx_total").Value(); got != uint64(len(refCtxs)) {
		t.Fatalf("server_alarm_ctx_total = %d, want %d", got, len(refCtxs))
	}
}

// TestForensicsDisabled: a negative IPDS.Recorder turns the machinery
// off — no AlarmCtx frames, no context counters, alarms unchanged.
func TestForensicsDisabled(t *testing.T) {
	w := startWorld(t, server.Config{IPDS: ipds.Config{Recorder: -1}})
	trace := ipdsclient.Tamper(ipdsclient.Capture(w.art, nil), 5)
	c, err := ipdsclient.Dial(ipdsclient.Config{Addr: w.addr, Image: w.hash, Program: "noforensics"})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if err := c.Send(trace...); err != nil {
		t.Fatalf("send: %v", err)
	}
	if err := c.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if len(c.Alarms()) == 0 {
		t.Fatal("tampered trace raised no alarms")
	}
	if n := len(c.AlarmContexts()); n != 0 {
		t.Fatalf("recorder disabled but %d AlarmCtx frames arrived", n)
	}
	if got := w.reg.Counter("server_alarm_ctx_total").Value(); got != 0 {
		t.Fatalf("server_alarm_ctx_total = %d with forensics disabled", got)
	}
}

// TestDebugSessions exercises the /debug/sessions document: live
// sessions appear with their self-published telemetry and forensic
// snapshot, and retire from the document when they end.
func TestDebugSessions(t *testing.T) {
	// Throttle off so the forensic snapshot tracks the newest alarm.
	scfg := ipds.DefaultConfig
	scfg.CtxGap = -1
	w := startWorld(t, server.Config{IPDS: scfg})
	trace := ipdsclient.Tamper(ipdsclient.Capture(w.art, nil), 5)

	c, err := ipdsclient.Dial(ipdsclient.Config{Addr: w.addr, Image: w.hash, Program: "topper", Batch: 16})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if err := c.Send(trace...); err != nil {
		t.Fatalf("send: %v", err)
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	// Wait until the session has verified everything sent.
	deadline := time.Now().Add(5 * time.Second)
	for c.Acked() < c.Sent() && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}

	rec := httptest.NewRecorder()
	w.srv.DebugHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/sessions", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var info server.DebugInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, rec.Body.String())
	}
	if len(info.Sessions) != 1 {
		t.Fatalf("debug lists %d sessions, want 1:\n%s", len(info.Sessions), rec.Body.String())
	}
	ds := info.Sessions[0]
	if ds.Program != "topper" {
		t.Fatalf("program = %q", ds.Program)
	}
	if ds.Events != uint64(len(trace)) {
		t.Fatalf("events = %d, want %d", ds.Events, len(trace))
	}
	if ds.Batches == 0 || ds.Alarms == 0 {
		t.Fatalf("batches=%d alarms=%d, want both > 0", ds.Batches, ds.Alarms)
	}
	if ds.Recorded < uint64(len(trace)) {
		t.Fatalf("recorded = %d, want >= %d (recorder sees every committed event)", ds.Recorded, len(trace))
	}
	if ds.LastAlarm == nil {
		t.Fatal("no forensic snapshot on an alarming session")
	}
	alarms := c.Alarms()
	last := alarms[len(alarms)-1]
	if ds.LastAlarm.Seq != last.Seq || ds.LastAlarm.Func != last.Func || ds.LastAlarm.PC != last.PC {
		t.Fatalf("LastAlarm %+v does not match newest alarm %+v", ds.LastAlarm, last)
	}
	if ds.LastAlarm.Window == 0 || len(ds.LastAlarm.Stack) == 0 {
		t.Fatalf("forensic snapshot is empty: %+v", ds.LastAlarm)
	}

	// After the session ends the document must be empty — no leaked
	// per-session telemetry.
	if err := c.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	c.Close()
	w.waitSessions(t, 0)
	if got := w.srv.Debug(); len(got.Sessions) != 0 {
		t.Fatalf("debug lists %d sessions after close", len(got.Sessions))
	}
}

// TestEvictionFlushesSessionTelemetry holds the no-leak satellite on
// the idle-eviction path: when the daemon evicts a session, the active
// gauge returns to zero, the machine's counters are absorbed into the
// server-wide series, and the debug document forgets the session.
func TestEvictionFlushesSessionTelemetry(t *testing.T) {
	w := startWorld(t, server.Config{ReadTimeout: 80 * time.Millisecond})
	trace := ipdsclient.Tamper(ipdsclient.Capture(w.art, nil), 5)
	c, err := ipdsclient.Dial(ipdsclient.Config{Addr: w.addr, Image: w.hash, Program: "evictee"})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if err := c.Send(trace...); err != nil {
		t.Fatalf("send: %v", err)
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	// Go idle; the server evicts on its read deadline.
	select {
	case <-c.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("idle session was not evicted")
	}
	w.waitSessions(t, 0)

	if got := w.reg.Gauge("server_sessions_active").Value(); got != 0 {
		t.Fatalf("server_sessions_active = %d after eviction", got)
	}
	if got := w.reg.Counter("server_evictions_total").Value(); got != 1 {
		t.Fatalf("server_evictions_total = %d, want 1", got)
	}
	// The evicted machine's verified work was absorbed, not lost.
	if got := w.reg.Counter("server_machine_branches_total").Value(); got == 0 {
		t.Fatal("server_machine_branches_total = 0; machine counters were not absorbed")
	}
	if got := w.reg.Counter("server_events_total").Value(); got != uint64(len(trace)) {
		t.Fatalf("server_events_total = %d, want %d", got, len(trace))
	}
	if got := w.srv.Debug(); len(got.Sessions) != 0 {
		t.Fatalf("debug lists %d sessions after eviction", len(got.Sessions))
	}
}

// TestDrainFlushesSessionTelemetry is the same no-leak contract on the
// graceful-drain path, plus the serve-path histograms having filled.
func TestDrainFlushesSessionTelemetry(t *testing.T) {
	w := startWorld(t, server.Config{})
	trace := ipdsclient.Tamper(ipdsclient.Capture(w.art, nil), 5)
	c, err := ipdsclient.Dial(ipdsclient.Config{Addr: w.addr, Image: w.hash, Program: "drainee", Batch: 8})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if err := c.Send(trace...); err != nil {
		t.Fatalf("send: %v", err)
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	w.shut(t)
	select {
	case <-c.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("drain never ended the session")
	}
	if got := w.reg.Gauge("server_sessions_active").Value(); got != 0 {
		t.Fatalf("server_sessions_active = %d after drain", got)
	}
	if got := w.reg.Counter("server_machine_branches_total").Value(); got == 0 {
		t.Fatal("machine counters were not absorbed on drain")
	}
	if got := w.srv.Debug(); len(got.Sessions) != 0 {
		t.Fatalf("debug lists %d sessions after drain", len(got.Sessions))
	}
	// The serve-path telemetry filled while the session ran: batch
	// verify latency and write coalescing both saw every batch. The
	// span wait histogram sees 1-in-64 batches, and the first batch of
	// every session is always sampled, so it is not empty either.
	for _, h := range []string{"server_verify_ns", "server_write_coalesced_bytes"} {
		if got := w.reg.Histogram(h).Count(); got == 0 {
			t.Fatalf("%s histogram is empty after a served session", h)
		}
	}
	if got := w.reg.Histogram("server_write_wait_ns").Count(); got == 0 {
		t.Fatal("server_write_wait_ns is empty; the first batch of a session is always sampled")
	}
}
