package ipdsclient_test

import (
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/ipds"
	"repro/internal/ipdsclient"
	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/internal/workload"
)

// TestRedialResumesSession is the handoff primitive's unit test: a
// session that drains cleanly and redials must read exactly like one
// uninterrupted session — cumulative acks, and alarms whose re-based
// sequence numbers match a single continuous in-process replay of
// both passes. This is what makes a fleet-level drain handoff
// invisible: machine state is empty at a balanced pass boundary, so
// only the branch-sequence offset (which Redial re-bases) and the
// event total (which it carries) distinguish the resumed session.
func TestRedialResumesSession(t *testing.T) {
	w := workload.ByName("telnetd")
	if w == nil {
		t.Fatal("telnetd workload missing")
	}
	art, err := pipeline.CompileWith(w.Source, ir.DefaultOptions, pipeline.Config{}, nil)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	store := server.NewImageStore(nil)
	hash := store.Add(w.Name, art.Image)
	srv := server.New(store, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	trace := ipdsclient.Tamper(ipdsclient.Capture(art, w.AttackSession), 31)
	// Reference: both passes through ONE machine, uninterrupted.
	full := append(append([]wire.Event{}, trace...), trace...)
	ref := ipdsclient.ReplayLocal(ipds.New(art.Image, ipds.DefaultConfig), full)
	if len(ref) == 0 {
		t.Fatal("tampered trace raised no reference alarms; test is vacuous")
	}

	cfg := ipdsclient.Config{Addr: ln.Addr().String(), Image: hash, Program: w.Name, Batch: 256}
	c, err := ipdsclient.Dial(cfg)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if err := c.Send(trace...); err != nil {
		t.Fatalf("send pass 1: %v", err)
	}

	// A still-live session must refuse to redial.
	if _, err := ipdsclient.Redial(c); err == nil {
		t.Fatal("Redial succeeded on a live session")
	}

	if err := c.Drain(); err != nil {
		t.Fatalf("drain pass 1: %v", err)
	}
	c.Close()

	c2, err := ipdsclient.Redial(c)
	if err != nil {
		t.Fatalf("redial: %v", err)
	}
	defer c2.Close()
	// The resumed log shares the first session's full chunks; the new
	// session's alarms must never show through c.
	before := c.Alarms()
	if len(before) == 0 {
		t.Fatal("pass 1 raised no alarms; the redial isolation check is vacuous")
	}
	if err := c2.Send(trace...); err != nil {
		t.Fatalf("send pass 2: %v", err)
	}
	if err := c2.Drain(); err != nil {
		t.Fatalf("drain pass 2: %v", err)
	}

	if want := uint64(2 * len(trace)); c2.Sent() != want || c2.Acked() != want {
		t.Fatalf("resumed session sent/acked = %d/%d, want %d/%d", c2.Sent(), c2.Acked(), want, want)
	}
	after := c.Alarms()
	if len(after) != len(before) || c.AlarmCount() != len(before) {
		t.Fatalf("previous client's alarms grew from %d to %d across the resumed session", len(before), len(after))
	}
	for i := range before {
		if after[i] != before[i] {
			t.Fatalf("previous client's alarm %d changed from %+v to %+v", i, before[i], after[i])
		}
	}
	got := c2.Alarms()
	if len(got) != len(ref) || c2.AlarmCount() != len(got) {
		t.Fatalf("resumed session raised %d alarms, want %d", len(got), len(ref))
	}
	for i, a := range got {
		r := ref[i]
		if a.Seq != r.Seq || a.PC != r.PC || a.Func != r.Func ||
			a.Slot != uint32(r.Slot) || a.Expected != uint8(r.Expected) || a.Taken != r.Taken {
			t.Fatalf("alarm %d: got %+v, want %+v", i, a, r)
		}
	}
	// Alarm/AlarmCtx pairing survives the re-basing: every context's
	// Seq must name an alarm the resumed client holds.
	seqs := map[uint64]bool{}
	for _, a := range got {
		seqs[a.Seq] = true
	}
	for i, cx := range c2.AlarmContexts() {
		if !seqs[cx.Seq] {
			t.Fatalf("context %d names seq %d, which matches no alarm", i, cx.Seq)
		}
	}
}
