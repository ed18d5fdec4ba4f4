package server_test

import (
	"net"
	"sync/atomic"
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

// TestStalledReaderDoesNotDelayOthers: a client that stops reading its
// replies wedges only its own session. Session A streams tampered
// frames — an alarm and forensic context flood — and never reads, so
// the daemon's reply write to it blocks (for up to WriteTimeout) once
// the socket buffers between them fill, and A's own writes stop. While
// A is wedged, session B's round trips must complete promptly: no
// goroutine serving B ever waits on A's socket.
func TestStalledReaderDoesNotDelayOthers(t *testing.T) {
	art, frames := isolatedFrames(t)
	w := startWorldWith(t, art, "telnetd", server.Config{})
	trace := ipdsclient.Tamper(ipdsclient.Capture(art, workload.ByName("telnetd").Sessions()[0]), 5)
	flood := wire.AppendBatches(nil, trace, 512)

	a := dialAck(t, w.addr, w.hash)
	defer a.conn.Close()
	var lastWrite atomic.Int64
	lastWrite.Store(time.Now().UnixNano())
	go func() {
		for {
			if _, err := a.conn.Write(flood); err != nil {
				return // closed at the end of the test
			}
			lastWrite.Store(time.Now().UnixNano())
		}
	}()
	// A is wedged once its writes stop completing: the daemon stopped
	// reading it, blocked writing replies A never reads.
	deadline := time.Now().Add(20 * time.Second)
	for time.Since(time.Unix(0, lastWrite.Load())) < 300*time.Millisecond {
		if time.Now().After(deadline) {
			t.Fatal("the flooding session's writes never stalled")
		}
		time.Sleep(10 * time.Millisecond)
	}

	b := dialAck(t, w.addr, w.hash)
	defer b.conn.Close()
	start := time.Now()
	const trips = 50
	for i := 0; i < trips; i++ {
		b.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		b.roundTrip(t, frames[i%len(frames)])
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("%d round trips took %v beside a wedged session", trips, took)
	}
	if time.Since(time.Unix(0, lastWrite.Load())) < 300*time.Millisecond {
		t.Fatal("the flooding session came unwedged during the round trips; the test proved nothing")
	}
}

// BenchmarkServeIsolatedBatch times one session's round trip over
// loopback TCP: send one 512-event frame, block until its Ack, repeat.
// Nothing is queued between frames, so every round trip pays the
// session goroutine's wake-up plus two socket hops, with no timer or
// pacer in the loop.
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
