package server

import (
	"context"
	"testing"
	"time"

	"repro/internal/ipds"
	"repro/internal/ipdsclient"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/wire"
	"repro/internal/workload"
)

// TestUntracedServerHoldsNoSpanRing: a core's committed span-record
// ring is allocated by its first stamped batch. Untraced traffic —
// whose every 64th batch still carries a span record into the wait
// histograms — leaves every core without one; the first stamped batch
// gives its core the whole TraceRing.
func TestUntracedServerHoldsNoSpanRing(t *testing.T) {
	w := workload.ByName("telnetd")
	art, err := pipeline.Compile(w.Source, ir.DefaultOptions)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	trace := ipdsclient.Capture(art, w.PerfSession)
	store := NewImageStore(nil)
	store.Add("telnetd", art.Image)
	srv := New(store, Config{Reg: obs.NewRegistry()})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	// The test goroutine plays a verifier of its own, as in
	// BenchmarkVerifyBatchIncident.
	v := newVerifier(srv, len(srv.verifiers))
	srv.writerWG.Add(1)
	go v.wr.loop()
	defer v.send(writeOp{stop: true})
	ss := &session{
		id: 1, srv: srv, conn: discardConn{}, v: v,
		m:       ipds.New(art.Image, srv.cfg.IPDS),
		program: "telnetd",
		started: time.Now(),
	}
	ringLen := func(r *spanRing) (int, uint64) {
		r.mu.Lock()
		defer r.mu.Unlock()
		return len(r.buf), r.n
	}
	send := func(traceID uint64) {
		bt := srv.batchPool.Get().(*wire.Batch)
		bt.Events = trace[:min(len(trace), 512)]
		bt.TraceID = traceID
		v.pass(ss, []task{{b: bt, sp: ss.sample(bt)}})
	}
	waitFor := func(what string, done func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !done(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}

	for range 4 * spanSampleEvery {
		send(0)
	}
	waitFor("sampled spans to reach the wait histograms", func() bool { return srv.met.writeWaitNs.Count() == 4 })
	for _, c := range append(srv.verifiers, v) {
		if n, _ := ringLen(c.wr.spans); n != 0 {
			t.Fatalf("core %d holds a %d-record span ring after untraced traffic", c.id, n)
		}
	}

	send(1)
	waitFor("the stamped batch's span to commit", func() bool { _, n := ringLen(v.wr.spans); return n == 1 })
	if n, _ := ringLen(v.wr.spans); n != srv.cfg.TraceRing {
		t.Fatalf("first stamped batch allocated a %d-record ring, want %d", n, srv.cfg.TraceRing)
	}
	if got := v.wr.spans.snapshot(nil); len(got) != 1 || got[0].TraceID != 1 {
		t.Fatalf("trace spans %+v, want the one stamped batch", got)
	}
}
