package server_test

import (
	"context"
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/ipdsclient"
	"repro/internal/server"
	"repro/internal/wire"
)

// twoFrames encodes the first 2·batch events of evs as two Batch frames
// and returns the stream plus the byte offset halfway through the
// second frame.
func twoFrames(t *testing.T, evs []wire.Event, batch int) (stream []byte, mid int) {
	t.Helper()
	if len(evs) < 2*batch {
		t.Fatalf("need %d events, trace holds %d", 2*batch, len(evs))
	}
	stream = wire.AppendBatches(nil, evs[:2*batch], batch)
	first := 4 + int(binary.LittleEndian.Uint32(stream))
	return stream, first + (len(stream)-first)/2
}

// readUntil reads frames until stop accepts one, failing on a read
// error; it returns the last Ack value seen and any Error frame.
func readUntil(t *testing.T, a *ackSession, stop func(wire.Frame) bool) (acked uint64, ef *wire.Error) {
	t.Helper()
	for {
		f, err := a.rd.Next()
		if err != nil {
			t.Fatalf("read: %v (acked %d)", err, acked)
		}
		switch fr := f.(type) {
		case wire.Ack:
			acked = fr.Events
		case wire.Error:
			ef = &fr
		}
		if stop(f) {
			return acked, ef
		}
	}
}

// TestReadDeadlineRearmedForPartialFrame: a client idle for most of a
// ReadTimeout sends one and a half frames in one write, then the rest
// of the second frame once the deadline armed before that write has
// passed but well within a fresh ReadTimeout. The reader must re-arm
// before reading the rest — the next frame is not wholly buffered — so
// the session is not evicted. (Re-arming only when the buffer is empty
// would leave the stale deadline in force and evict it.)
func TestReadDeadlineRearmedForPartialFrame(t *testing.T) {
	const timeout = 500 * time.Millisecond
	w := startWorld(t, server.Config{ReadTimeout: timeout})
	trace := ipdsclient.Capture(w.art, nil)
	stream, mid := twoFrames(t, trace, 8)
	const events = 16

	a := dialAck(t, w.addr, w.hash)
	defer a.conn.Close()
	a.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	time.Sleep(timeout * 6 / 10)
	if _, err := a.conn.Write(stream[:mid]); err != nil {
		t.Fatalf("write: %v", err)
	}
	time.Sleep(timeout * 6 / 10) // past the first deadline, inside a fresh one
	if _, err := a.conn.Write(stream[mid:]); err != nil {
		t.Fatalf("write: %v", err)
	}
	acked, ef := readUntil(t, a, func(f wire.Frame) bool {
		ack, ok := f.(wire.Ack)
		_, isErr := f.(wire.Error)
		return isErr || ok && ack.Events == events
	})
	if ef != nil || acked != events {
		t.Fatalf("acked %d of %d events, error frame %+v: session evicted mid-frame", acked, events, ef)
	}
	if got := w.reg.Counter("server_evictions_total").Value(); got != 0 {
		t.Fatalf("server_evictions_total = %d, want 0", got)
	}
}

// TestReadDeadlineEvictsMidFrameStall: a client that sends one and a
// half frames and then stalls past ReadTimeout is evicted with ErrIdle
// once the first frame is verified, and the eviction is counted.
func TestReadDeadlineEvictsMidFrameStall(t *testing.T) {
	w := startWorld(t, server.Config{ReadTimeout: 150 * time.Millisecond})
	trace := ipdsclient.Capture(w.art, nil)
	stream, mid := twoFrames(t, trace, 8)

	a := dialAck(t, w.addr, w.hash)
	defer a.conn.Close()
	a.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := a.conn.Write(stream[:mid]); err != nil {
		t.Fatalf("write: %v", err)
	}
	acked, ef := readUntil(t, a, func(f wire.Frame) bool { _, bye := f.(wire.Bye); return bye })
	if ef == nil || ef.Code != wire.ErrIdle {
		t.Fatalf("error frame %+v, want ErrIdle", ef)
	}
	if acked != 8 {
		t.Fatalf("acked %d events, want the first frame's 8", acked)
	}
	w.waitSessions(t, 0)
	if got := w.reg.Counter("server_evictions_total").Value(); got != 1 {
		t.Fatalf("server_evictions_total = %d, want 1", got)
	}
}

// TestShutdownDrainsBufferedRun: Shutdown issued while a reader works
// through a run of frames one fill delivered — a run it reads without
// arming a deadline — still drains promptly: every event the client
// sent is verified and acked before Bye, long before a ReadTimeout.
func TestShutdownDrainsBufferedRun(t *testing.T) {
	const timeout = 30 * time.Second
	w := startWorld(t, server.Config{ReadTimeout: timeout})
	var trace []wire.Event
	for len(trace) < 200_000 {
		trace = append(trace, ipdsclient.Capture(w.art, nil)...)
	}
	stream := wire.AppendBatches(nil, trace, 16)

	a := dialAck(t, w.addr, w.hash)
	defer a.conn.Close()
	a.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	// Write and then shut down from a goroutine while this one reads the
	// acks: the stream exceeds the socket buffers, so the reader is still
	// working through it when Shutdown lands.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	shut := make(chan error, 1)
	var took time.Duration
	go func() {
		if _, err := a.conn.Write(stream); err != nil {
			shut <- err
			return
		}
		start := time.Now()
		err := w.srv.Shutdown(ctx)
		took = time.Since(start)
		shut <- err
	}()
	acked, _ := readUntil(t, a, func(f wire.Frame) bool { _, bye := f.(wire.Bye); return bye })
	if err := <-shut; err != nil {
		t.Fatalf("write or shutdown: %v", err)
	}
	if took > 3*time.Second {
		t.Fatalf("drain took %v with a %v ReadTimeout", took, timeout)
	}
	if acked != uint64(len(trace)) {
		t.Fatalf("final ack %d, want all %d events sent before the shutdown", acked, len(trace))
	}
}
