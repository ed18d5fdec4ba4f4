package server

import (
	"context"
	"io"
	"net"
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

// discardConn is a no-op net.Conn: writes succeed and vanish. The
// bench routes the session's output through the real core writer but
// must not touch sockets (net.Pipe deadlines allocate timers, which
// would poison the allocs/op measurement).
type discardConn struct{}

func (discardConn) Read(p []byte) (int, error)         { return 0, io.EOF }
func (discardConn) Write(p []byte) (int, error)        { return len(p), nil }
func (discardConn) Close() error                       { return nil }
func (discardConn) LocalAddr() net.Addr                { return nil }
func (discardConn) RemoteAddr() net.Addr               { return nil }
func (discardConn) SetDeadline(t time.Time) error      { return nil }
func (discardConn) SetReadDeadline(t time.Time) error  { return nil }
func (discardConn) SetWriteDeadline(t time.Time) error { return nil }

// stall holds the analyzer off the queue until the returned release
// is called: it closes the stage, which drains what is queued and stops
// the consumer, and release reopens it under a new consumer, which
// meets everything offered meanwhile in order. The caller must be the
// stage's only producer while stalled.
func (st *incidentStage) stall() (release func()) {
	st.close()
	return func() {
		st.mu.Lock()
		st.closed = false
		st.mu.Unlock()
		st.start()
	}
}

// BenchmarkVerifyBatchIncident measures the verifier's per-batch cost
// with the incident stage enabled — the serve path's side of the
// analytics contract. It drives the verifier's pass directly (no
// sockets, no client), verifyPop batches at a time as a busy session's
// ring hands them over, and the analyzer is stalled for the timed section (the
// roomy queue absorbs every offer), so the allocs/op it reports — which
// b.ReportAllocs counts process-wide — is the verifier's and its core
// writer's alone: `make alloc-gate` requires it to stay 0 even while
// every alarm is folded into the verifier's records and offered to the
// incident queue, every forensic capture the session has not already
// had accepted for its signal is deep-copied across it, and every 64th
// batch's span record feeds the (live) wait histograms.
func BenchmarkVerifyBatchIncident(b *testing.B) {
	w := workload.ByName("telnetd")
	if w == nil {
		b.Fatal("telnetd workload missing")
	}
	art, err := pipeline.Compile(w.Source, ir.DefaultOptions)
	if err != nil {
		b.Fatalf("compile: %v", err)
	}
	trace := ipdsclient.Tamper(ipdsclient.Capture(art, w.Sessions()[0]), 5)
	if len(trace) == 0 {
		b.Fatal("empty trace")
	}

	store := NewImageStore(nil)
	store.Add("bench", art.Image)
	// A roomy queue: benchmark iterations outrun the analyzer goroutine,
	// and overflow drops — while allocation-free — would leave the
	// offer path itself unmeasured.
	srv := New(store, Config{IncidentQueue: 1 << 16, Reg: obs.NewRegistry()})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	// The bench goroutine plays a verifier of its own, outside the
	// server's pool: it is the sole producer into its writer's ring and
	// the sole sleeper on its Parker (send parks there while the ring is
	// full), as a verifier loop would be. Its core writer runs for real
	// — coalescing into wbuf, "writing" to the discard conn, releasing
	// pooled frames — so the measurement covers the whole verifier-side
	// serve path. The stop op ends that writer before Shutdown waits on
	// it.
	v := newVerifier(srv, len(srv.verifiers))
	srv.writerWG.Add(1)
	go v.wr.loop()
	defer v.send(writeOp{stop: true})
	ss := &session{
		srv:       srv,
		conn:      discardConn{},
		m:         ipds.New(art.Image, srv.cfg.IPDS),
		v:         v,
		program:   "bench",
		forensics: srv.cfg.IPDS.Recorder > 0,
		started:   time.Now(),
	}
	if !ss.forensics {
		b.Fatal("daemon default config has forensics off; benchmark would under-measure")
	}

	const batchLen = 512
	var chunks [][]wire.Event
	for off := 0; off < len(trace); off += batchLen {
		end := min(off+batchLen, len(trace))
		chunks = append(chunks, trace[off:end])
	}
	events := 0
	var tasks [verifyPop]task
	feed := func(n int) {
		for i := 0; i < n; {
			k := min(n-i, verifyPop)
			for j := range k {
				bt := srv.batchPool.Get().(*wire.Batch)
				bt.Events = chunks[(i+j)%len(chunks)]
				events += len(bt.Events)
				// Sampled as the reader samples — every spanSampleEvery-th
				// batch leases a span record — so the writer's span commit
				// and wait-histogram path is measured too.
				tasks[j] = task{b: bt, sp: ss.sample(bt)}
			}
			v.pass(ss, tasks[:k])
			i += k
		}
	}
	// Warm everything the steady state reuses: pools, encode buffers,
	// the machine's rings, the analyzer's signal and series maps. Then
	// rehearse the timed section — the same batches, analyzer stalled —
	// so the forensic-context free list holds one for every capture
	// the timed section queues, the queue has grown to hold all of its
	// records, and the frame-buffer pool already holds as many buffers
	// as that run keeps in flight. Each sync barrier lets the analyzer
	// drain its backlog, emptying the queue and putting every context
	// back on its free list.
	feed(max(512, 64*len(chunks)))
	srv.incidents.sync()
	release := srv.incidents.stall()
	feed(b.N)
	release()
	srv.incidents.sync()
	release = srv.incidents.stall()
	events = 0

	b.ReportAllocs()
	b.ResetTimer()
	feed(b.N)
	b.StopTimer()
	release()
	if srv.met.writeWaitNs.Count() == 0 {
		b.Fatal("no sampled span reached the wait histograms")
	}
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(events)/s, "events/s")
	}
}
