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
	"repro/internal/tables"
	"repro/internal/wire"
	"repro/internal/workload"
)

// discardConn is a no-op net.Conn: writes succeed and vanish, reads
// end the stream. Tests that drive a session's methods directly give it
// one, so replies cost no socket (net.Pipe deadlines allocate timers,
// which would poison an allocs/op measurement).
type discardConn struct{}

func (discardConn) Read(p []byte) (int, error)         { return 0, io.EOF }
func (discardConn) Write(p []byte) (int, error)        { return len(p), nil }
func (discardConn) Close() error                       { return nil }
func (discardConn) LocalAddr() net.Addr                { return nil }
func (discardConn) RemoteAddr() net.Addr               { return nil }
func (discardConn) SetDeadline(t time.Time) error      { return nil }
func (discardConn) SetReadDeadline(t time.Time) error  { return nil }
func (discardConn) SetWriteDeadline(t time.Time) error { return nil }

// feedConn is a discardConn whose reads replay a cycle of encoded
// Batch frames: feed queues the next n frames of the cycle, and a read
// past them ends the stream (io.EOF), so a session's serve loop returns
// with every queued frame verified and its replies written.
type feedConn struct {
	discardConn
	block []byte // one cycle of encoded frames
	sizes []int  // each frame's length in block, prefix included
	off   int    // next byte of block to deliver
	left  int    // bytes queued and not yet delivered
	next  int    // the frame feed queues next
}

func newFeedConn(chunks [][]wire.Event) *feedConn {
	c := &feedConn{}
	for _, evs := range chunks {
		n := len(c.block)
		c.block = wire.AppendBatches(c.block, evs, len(evs))
		c.sizes = append(c.sizes, len(c.block)-n)
	}
	return c
}

func (c *feedConn) feed(n int) {
	for range n {
		c.left += c.sizes[c.next]
		c.next = (c.next + 1) % len(c.sizes)
	}
}

func (c *feedConn) Read(p []byte) (int, error) {
	if c.left == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), c.left)], c.block[c.off:])
	c.off = (c.off + n) % len(c.block)
	c.left -= n
	return n, nil
}

// testSession makes an unregistered session of srv on conn, verifying
// against img, with the given id; tests drive its methods directly.
func testSession(srv *Server, id uint64, conn net.Conn, img *tables.Image) *session {
	ss := srv.newSession(conn, wire.NewReader(conn), ipds.New(img, srv.cfg.IPDS), "test")
	ss.id = id
	ss.core = int(id % uint64(len(srv.rows)))
	ss.row = srv.rows[ss.core]
	return ss
}

// BenchmarkVerifyBatchIncident measures a session's per-batch cost
// with the incident stage enabled — the serve path's side of the
// analytics contract. It runs the session's serve loop over a feedConn
// (decode, verify, reply encoding and the write, no sockets, no
// client), with the session feeding the analyzer itself, so the
// allocs/op it reports — which b.ReportAllocs counts process-wide —
// covers the serve loop and the analyzer's steady state together:
// `make alloc-gate` requires it to stay 0 even while every alarm is
// folded into the session's records and fed to the analyzer, every
// fresh forensic capture is fed behind them, and every 64th batch's
// span record feeds the (live) wait histogram.
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

	srv := New(NewImageStore(nil), Config{Reg: obs.NewRegistry()})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	const batchLen = 512
	var chunks [][]wire.Event
	for off := 0; off < len(trace); off += batchLen {
		chunks = append(chunks, trace[off:min(off+batchLen, len(trace))])
	}
	conn := newFeedConn(chunks)
	ss := testSession(srv, 1, conn, art.Image)
	if !ss.forensics {
		b.Fatal("daemon default config has forensics off; benchmark would under-measure")
	}
	feed := func(n int) {
		conn.feed(n)
		ss.serve()
	}
	// Warm everything the steady state reuses: the session's batch and
	// write buffer, the machine's rings, the analyzer's signals, the
	// session's series and dedup filter, and each signal's kept context.
	feed(max(512, 64*len(chunks)))
	acked := ss.acked

	b.ReportAllocs()
	b.ResetTimer()
	feed(b.N)
	b.StopTimer()
	if srv.met.writeWaitNs.Count() == 0 {
		b.Fatal("no sampled span reached the wait histogram")
	}
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(ss.acked-acked)/s, "events/s")
	}
}
