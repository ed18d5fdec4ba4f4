package server_test

import (
	"net"
	"testing"
	"time"

	"repro/internal/ipdsclient"
	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/internal/workload"
)

// isolatedFrames compiles telnetd and returns its artifacts plus a
// benign captured trace pre-encoded as 512-event Batch frames, one
// frame per element. Capture closes the run's open frames, so
// replaying the frames in a loop keeps the machine at a steady depth
// however many times it wraps.
func isolatedFrames(tb testing.TB) (*pipeline.Artifacts, [][]byte) {
	tb.Helper()
	w := workload.ByName("telnetd")
	if w == nil {
		tb.Fatal("telnetd workload missing")
	}
	art, err := pipeline.Compile(w.Source, ir.DefaultOptions)
	if err != nil {
		tb.Fatalf("compile: %v", err)
	}
	trace := ipdsclient.Capture(art, w.Sessions()[0])
	var frames [][]byte
	for off := 0; off < len(trace); off += 512 {
		frames = append(frames, wire.AppendBatches(nil, trace[off:min(off+512, len(trace))], 512))
	}
	return art, frames
}

// ackSession is a bare wire-level session over loopback TCP: it writes
// pre-encoded Batch frames and blocks in a socket read until the
// matching Ack, so a round trip includes no client-side polling or
// timers — only the daemon's own wake-ups.
type ackSession struct {
	conn net.Conn
	rd   *wire.Reader
}

func dialAck(tb testing.TB, addr string, hash [32]byte) *ackSession {
	tb.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		tb.Fatalf("dial: %v", err)
	}
	conn.(*net.TCPConn).SetNoDelay(true)
	hello := wire.MustAppend(nil, wire.Hello{Version: wire.Version, Image: hash, Program: "isolated"})
	if _, err := conn.Write(hello); err != nil {
		tb.Fatalf("hello: %v", err)
	}
	rd := wire.NewReader(conn)
	if f, err := rd.Next(); err != nil {
		tb.Fatalf("handshake: %v", err)
	} else if _, ok := f.(wire.HelloAck); !ok {
		tb.Fatalf("handshake: got %v, want HelloAck", f.Type())
	}
	return &ackSession{conn: conn, rd: rd}
}

// roundTrip sends one frame and waits for the Ack that covers it,
// skipping any other frame the daemon sends first.
func (a *ackSession) roundTrip(tb testing.TB, frame []byte) {
	if _, err := a.conn.Write(frame); err != nil {
		tb.Fatalf("send: %v", err)
	}
	for {
		f, err := a.rd.Next()
		if err != nil {
			tb.Fatalf("awaiting ack: %v", err)
		}
		if _, ok := f.(wire.Ack); ok {
			return
		}
	}
}

// parks sums the verifier and writer park counters over every core.
func parks(srv *server.Server) (verifier, writer uint64) {
	for _, cs := range srv.CoreStats() {
		verifier += cs.Parks
		writer += cs.WriterParks
	}
	return verifier, writer
}

// TestIsolatedBatchesPark holds the serve loops to parking whenever
// they run out of work: with each batch sent only after the previous
// one's Ack arrived, the verifier and the writer have nothing queued
// between batches, so each must park once per gap. The client pauses
// briefly after each Ack so every gap is a real idle period: without
// it, the OS may preempt the writer's thread right after its write
// syscall (waking the client's thread on the same CPU), and the next
// batch's Ack can be queued before the writer ever sees its ring
// empty.
func TestIsolatedBatchesPark(t *testing.T) {
	const n = 200
	art, frames := isolatedFrames(t)
	w := startWorldWith(t, art, "telnetd", server.Config{})
	a := dialAck(t, w.addr, w.hash)
	defer a.conn.Close()
	a.roundTrip(t, frames[0]) // session adopted and warm
	v0, w0 := parks(w.srv)
	for i := 0; i < n; i++ {
		time.Sleep(time.Millisecond)
		a.roundTrip(t, frames[(i+1)%len(frames)])
	}
	v1, w1 := parks(w.srv)
	if got := v1 - v0; got < n-1 {
		t.Errorf("verifier parks grew by %d over %d isolated batches, want >= %d", got, n, n-1)
	}
	if got := w1 - w0; got < n-1 {
		t.Errorf("writer parks grew by %d over %d isolated batches, want >= %d", got, n, n-1)
	}
}

// BenchmarkServeIsolatedBatch times one session's round trip over
// loopback TCP: send one 512-event frame, block until its Ack, repeat.
// Nothing is queued between frames, so every round trip pays the
// daemon's full wake-up chain (reader → verifier → writer) plus two
// socket hops, with no timer or pacer in the loop.
func BenchmarkServeIsolatedBatch(b *testing.B) {
	art, frames := isolatedFrames(b)
	w := startWorldWith(b, art, "telnetd", server.Config{})
	a := dialAck(b, w.addr, w.hash)
	defer a.conn.Close()
	for i := 0; i < 64; i++ { // warm pools, buffers and the machine
		a.roundTrip(b, frames[i%len(frames)])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.roundTrip(b, frames[i%len(frames)])
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N), "us/roundtrip")
}
