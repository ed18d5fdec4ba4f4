package server

import (
	"context"
	"testing"
	"time"

	"repro/internal/ipdsclient"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/wire"
	"repro/internal/workload"
)

// TestUntracedServerHoldsNoSpanRing: a row's committed span-record
// ring is allocated by its first stamped batch. Untraced traffic —
// whose every 64th batch still carries a span record into the wait
// histogram — leaves every row without one; the first stamped batch
// gives its row the whole TraceRing.
func TestUntracedServerHoldsNoSpanRing(t *testing.T) {
	w := workload.ByName("telnetd")
	art, err := pipeline.Compile(w.Source, ir.DefaultOptions)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	trace := ipdsclient.Capture(art, w.PerfSession)
	srv := New(NewImageStore(nil), Config{Reg: obs.NewRegistry()})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	ss := testSession(srv, 1, discardConn{}, art.Image)
	ringLen := func(r *spanRing) (int, uint64) {
		r.mu.Lock()
		defer r.mu.Unlock()
		return len(r.buf), r.n
	}
	send := func(traceID uint64) {
		ss.verify(&wire.Batch{Events: trace[:min(len(trace), 512)], TraceID: traceID})
		ss.flush()
	}

	for range 4 * spanSampleEvery {
		send(0)
	}
	if n := srv.met.writeWaitNs.Count(); n != 4 {
		t.Fatalf("%d sampled spans reached the wait histogram, want 4", n)
	}
	for i, r := range srv.rows {
		if n, _ := ringLen(r.spans); n != 0 {
			t.Fatalf("row %d holds a %d-record span ring after untraced traffic", i, n)
		}
	}

	send(1)
	if n, c := ringLen(ss.row.spans); n != srv.cfg.TraceRing || c != 1 {
		t.Fatalf("first stamped batch allocated a %d-record ring holding %d, want %d holding 1", n, c, srv.cfg.TraceRing)
	}
	if got := ss.row.spans.snapshot(nil); len(got) != 1 || got[0].TraceID != 1 {
		t.Fatalf("trace spans %+v, want the one stamped batch", got)
	}
}
