package server_test

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/ipdsclient"
	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/internal/server"
	"repro/internal/vm"
	"repro/internal/wire"
	"repro/internal/workload"
)

// TestDepthLimitEndsEnterFlood: a client that only ever enters a
// function — 2,048,000 EvEnter events, a table stack no VM run
// reaches — is ended with ErrLimit once a verified batch leaves
// the stack deeper than vm.MaxCallDepth, counted in
// server_session_limit_total, and never verified past that batch. The
// daemon's live heap stays near its baseline: unbounded, the flood grew
// it by tens of megabytes.
func TestDepthLimitEndsEnterFlood(t *testing.T) {
	w := startWorld(t, server.Config{})
	const batch, events = 512, 2_048_000
	enters := make([]wire.Event, batch)
	for i := range enters {
		enters[i] = wire.Event{Kind: wire.EvEnter, PC: w.art.Prog.Funcs[0].Base}
	}
	block := wire.AppendBatches(nil, enters, batch)
	heap0 := liveHeap()

	c, err := ipdsclient.Dial(ipdsclient.Config{Addr: w.addr, Image: w.hash, Program: "guard", Batch: batch})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	for sent := 0; sent < events; sent += batch {
		if err := c.SendEncoded(block, batch, 0); err != nil {
			break // the daemon ended the session and closed the connection
		}
	}
	select {
	case <-c.Done():
	case <-time.After(10 * time.Second):
	}
	grown := int64(liveHeap()) - int64(heap0)
	if grown > 4<<20 {
		t.Fatalf("live heap grew %d bytes over the flood", grown)
	}
	t.Logf("live heap grew %d bytes", grown)

	if e := c.ServerError(); e == nil || e.Code != wire.ErrLimit {
		t.Fatalf("server error %+v, want ErrLimit", e)
	}
	// The stack is checked after every batch: the first batch to leave
	// it deeper than the limit is the last one verified.
	if want := uint64((vm.MaxCallDepth/batch + 1) * batch); c.Acked() != want {
		t.Fatalf("acked %d events, want %d", c.Acked(), want)
	}
	w.waitSessions(t, 0)
	if got := w.reg.Counter("server_session_limit_total").Value(); got != 1 {
		t.Fatalf("server_session_limit_total = %d, want 1", got)
	}
}

// TestMaxBatchFloodHeapBounded: a session holds one decoded batch, its
// frame and write buffers, and nothing more, however far its client
// runs ahead. One client streams 256 frames of wire.MaxBatch benign
// events (16M events, 1 MiB decoded a frame) faster than the daemon
// verifies them; the surplus waits in the session's socket, not in the
// daemon's heap, so the live heap sampled while the stream runs stays
// within a few MiB of its baseline; a queue of decoded batches behind
// the session would hold 1 MiB for every frame it let the client run
// ahead.
func TestMaxBatchFloodHeapBounded(t *testing.T) {
	w := startWorld(t, server.Config{})
	trace := ipdsclient.Capture(w.art, nil)
	if d := depthAfter(trace); d != 0 {
		t.Fatalf("capture ends at depth %d, want 0", d)
	}
	// Whole traces, so the stream stays balanced however often the
	// block repeats; cut into MaxBatch-event frames, the last ragged.
	var stream []wire.Event
	for len(stream) < 8*wire.MaxBatch {
		stream = append(stream, trace...)
	}
	block := wire.AppendBatches(nil, stream, wire.MaxBatch)
	events, perBlock := uint64(len(stream)), (len(stream)+wire.MaxBatch-1)/wire.MaxBatch
	stream = nil
	const frames = 256
	heap0 := liveHeap()

	c, err := ipdsclient.Dial(ipdsclient.Config{Addr: w.addr, Image: w.hash, Program: "flood", Batch: wire.MaxBatch})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	sent := make(chan error, 1)
	go func() {
		var err error
		for n := 0; n < frames && err == nil; n += perBlock {
			err = c.SendEncoded(block, events, 0)
		}
		if err == nil {
			err = c.Drain()
		}
		sent <- err
	}()
	var peak uint64
	for done := false; !done; {
		select {
		case err := <-sent:
			if err != nil {
				t.Fatalf("stream: %v", err)
			}
			done = true
		case <-time.After(10 * time.Millisecond):
			peak = max(peak, liveHeap())
		}
	}
	grown := int64(peak) - int64(heap0)
	t.Logf("peak live heap %d bytes over a baseline of %d", grown, heap0)
	if grown > 4<<20 {
		t.Fatalf("live heap grew %d bytes while the flood streamed", grown)
	}
	if c.Acked() != c.Sent() || c.Sent() < frames*wire.MaxBatch*7/8 {
		t.Fatalf("acked %d of %d events sent", c.Acked(), c.Sent())
	}
}

// TestDepthLimitSparesLoopedCapture: the depth bound ends floods, not
// looped load. telnetd's attack session ends in exit_prog inside main,
// so its run never returns from main; Capture closes that frame, and
// looping the capture more than vm.MaxCallDepth times on one session —
// what ipdsload and the scale gate do — verifies every event.
func TestDepthLimitSparesLoopedCapture(t *testing.T) {
	w := workload.ByName("telnetd")
	art, err := pipeline.Compile(w.Source, ir.DefaultOptions)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	trace := ipdsclient.Tamper(ipdsclient.Capture(art, w.AttackSession), 97)
	if d := depthAfter(trace); d != 0 {
		t.Fatalf("capture ends at depth %d, want 0", d)
	}
	world := startWorldWith(t, art, "telnetd", server.Config{})
	passes := 2 * vm.MaxCallDepth
	res := ipdsclient.RunLoad(ipdsclient.LoadConfig{
		Addr: world.addr, Image: world.hash, Program: "telnetd",
		Trace: trace, EventsPerConn: passes * len(trace),
	})
	if len(res.Errors) > 0 {
		t.Fatalf("session errors: %v", res.Errors)
	}
	if res.Events < uint64(passes*len(trace)) || res.Alarms == 0 {
		t.Fatalf("verified %d events with %d alarms, want ≥ %d events and some alarms", res.Events, res.Alarms, passes*len(trace))
	}
	if got := world.reg.Counter("server_session_limit_total").Value(); got != 0 {
		t.Fatalf("server_session_limit_total = %d, want 0", got)
	}
}

// TestRunLoadOvershootBounded: a load session stops within one trace
// pass of EventsPerConn. With a 3-event trace and 4,000 events a
// session, a block rounded down to 3,999 events fell just short, and a
// second whole block followed (7,998 events).
func TestRunLoadOvershootBounded(t *testing.T) {
	w := startWorld(t, server.Config{})
	check := w.art.Prog.ByName["check"]
	trace := []wire.Event{
		{Kind: wire.EvEnter, PC: check.Base},
		{Kind: wire.EvBranch, PC: check.Branches()[0].PC, Taken: true},
		{Kind: wire.EvLeave},
	}
	const perConn = 4000
	res := ipdsclient.RunLoad(ipdsclient.LoadConfig{
		Addr: w.addr, Image: w.hash, Program: "overshoot",
		Trace: trace, Sessions: 2, EventsPerConn: perConn,
	})
	if len(res.Errors) > 0 {
		t.Fatalf("session errors: %v", res.Errors)
	}
	if lo, hi := uint64(2*perConn), uint64(2*(perConn+len(trace))); res.Events < lo || res.Events >= hi {
		t.Fatalf("2 sessions acked %d events, want at least %d and fewer than %d", res.Events, lo, hi)
	}
}

// depthAfter returns the table-stack depth a stream leaves behind.
func depthAfter(evs []wire.Event) int {
	d := 0
	for _, ev := range evs {
		switch ev.Kind {
		case wire.EvEnter:
			d++
		case wire.EvLeave:
			d--
		}
	}
	return d
}

// liveHeap collects garbage and returns the bytes still live.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
