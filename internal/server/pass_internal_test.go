package server

import (
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/ipdsclient"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/wire"
	"repro/internal/workload"
)

// TestUpdateRateNoOverflow: a one-second window holding 1e8 alarms (a
// wholesale-tamper flood) must report 1e8 alarms/s. Computed in 64 bits,
// delta·10¹² wraps and the published rate is garbage.
func TestUpdateRateNoOverflow(t *testing.T) {
	start := time.Unix(1_000, 0)
	s := &session{started: start}
	end := start.Add(time.Second)
	s.updateRate(end.UnixNano(), 100_000_000)
	if got := s.alarmRate(end); got != 1e8 {
		t.Fatalf("alarm rate = %v alarms/s, want 1e8", got)
	}
	// A second window over the same session stays exact too.
	s.updateRate(end.Add(2*time.Second).UnixNano(), 300_000_000)
	if got := s.alarmRate(end); got != 1e8 {
		t.Fatalf("second window rate = %v alarms/s, want 1e8", got)
	}
}

// TestPassTelemetryExact holds the session's per-pass publication to
// exactness: with hundreds of frames sent in one write, a pass verifies
// everything one socket read delivered and publishes once, before the
// pass's replies are written — so as soon as the client holds the Ack
// for everything it sent, the server-wide, per-row and per-session
// counters all equal what it sent.
func TestPassTelemetryExact(t *testing.T) {
	w := workload.ByName("telnetd")
	art, err := pipeline.Compile(w.Source, ir.DefaultOptions)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	trace := ipdsclient.Tamper(ipdsclient.Capture(art, w.PerfSession), 5)
	const batch = 16
	trace = trace[:min(len(trace), 300*batch+5)] // a ragged last frame
	first := wire.AppendBatches(nil, trace[:batch], batch)
	rest := wire.AppendBatches(nil, trace[batch:], batch)
	frames := 1 + (len(trace)-batch+batch-1)/batch
	if frames <= 128 {
		t.Fatalf("trace too short: %d frames", frames)
	}

	reg := obs.NewRegistry()
	store := NewImageStore(nil)
	hash := store.Add("telnetd", art.Image)
	srv := New(store, Config{Reg: reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write(wire.MustAppend(nil, wire.Hello{Version: wire.Version, Image: hash, Program: "passes"})); err != nil {
		t.Fatalf("hello: %v", err)
	}
	rd := wire.NewReader(conn)
	if _, err := rd.Next(); err != nil {
		t.Fatalf("helloack: %v", err)
	}
	// ackTo reads frames up to the Ack for want events, counting alarms.
	var alarms uint64
	ackTo := func(want uint64) {
		t.Helper()
		for {
			f, err := rd.Next()
			if err != nil {
				t.Fatalf("awaiting ack %d: %v", want, err)
			}
			switch fr := f.(type) {
			case wire.Alarm:
				alarms++
			case wire.Ack:
				if fr.Events > want {
					t.Fatalf("ack %d past the %d events sent", fr.Events, want)
				}
				if fr.Events == want {
					return
				}
			}
		}
	}
	// One round trip proves the session live.
	if _, err := conn.Write(first); err != nil {
		t.Fatalf("send: %v", err)
	}
	ackTo(batch)
	if _, err := conn.Write(rest); err != nil {
		t.Fatalf("send: %v", err)
	}
	events := uint64(len(trace))
	ackTo(events)

	// The Ack for everything sent is out, so the pass that carried it
	// has published: the live counters are exact.
	check := func(when string) {
		t.Helper()
		if got := reg.Counter("server_events_total").Value(); got != events {
			t.Errorf("%s: server_events_total = %d, want %d", when, got, events)
		}
		if got := reg.Counter("server_batches_total").Value(); got != uint64(frames) {
			t.Errorf("%s: server_batches_total = %d, want %d", when, got, frames)
		}
		if got := reg.Counter("server_alarms_total").Value(); got != alarms || alarms == 0 {
			t.Errorf("%s: server_alarms_total = %d, client got %d alarms (want equal, > 0)", when, got, alarms)
		}
		var cs CoreStats
		for _, c := range srv.CoreStats() {
			cs.Events += c.Events
			cs.Batches += c.Batches
			cs.Alarms += c.Alarms
			cs.VerifyNs += c.VerifyNs
		}
		if cs.Events != events || cs.Batches != uint64(frames) || cs.Alarms != alarms || cs.VerifyNs == 0 {
			t.Errorf("%s: CoreStats sum events=%d batches=%d alarms=%d verify_ns=%d, want %d/%d/%d/>0",
				when, cs.Events, cs.Batches, cs.Alarms, cs.VerifyNs, events, frames, alarms)
		}
	}
	check("live")
	d := srv.Debug()
	if len(d.Sessions) != 1 {
		t.Fatalf("debug lists %d sessions, want 1", len(d.Sessions))
	}
	if ds := d.Sessions[0]; ds.Events != events || ds.Batches != uint64(frames) || ds.Alarms != alarms {
		t.Errorf("debug session events=%d batches=%d alarms=%d, want %d/%d/%d",
			ds.Events, ds.Batches, ds.Alarms, events, frames, alarms)
	}

	// Bye: the sealing Ack repeats the total, then the daemon says Bye.
	if _, err := conn.Write(wire.MustAppend(nil, wire.Bye{})); err != nil {
		t.Fatalf("bye: %v", err)
	}
	var final uint64
	for {
		f, err := rd.Next()
		if err != nil {
			t.Fatalf("awaiting bye: %v", err)
		}
		if a, ok := f.(wire.Ack); ok {
			final = a.Events
		}
		if _, ok := f.(wire.Bye); ok {
			break
		}
	}
	if final != events {
		t.Errorf("final ack = %d, want %d", final, events)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	check("drained")
}
