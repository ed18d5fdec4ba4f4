package ipdsclient

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/wire"
)

// recordClient dials a Client over net.Pipe against a stub daemon that
// answers the handshake and keeps every byte the client sends after
// it. written closes the client and returns those bytes.
func recordClient(tb testing.TB, cfg Config) (c *Client, written func() []byte) {
	tb.Helper()
	cli, srv := net.Pipe()
	var got bytes.Buffer
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := wire.NewReader(srv).Next(); err != nil {
			return
		}
		srv.Write(wire.MustAppend(nil, wire.HelloAck{Version: wire.Version, MaxBatch: wire.MaxBatch}))
		io.Copy(&got, srv)
	}()
	c, err := DialConn(cli, cfg)
	if err != nil {
		tb.Fatalf("dial: %v", err)
	}
	return c, func() []byte {
		c.Close()
		<-done
		srv.Close()
		return got.Bytes()
	}
}

// decodeBatches splits a written byte stream back into Batch frames.
func decodeBatches(t *testing.T, b []byte) []wire.Batch {
	t.Helper()
	var out []wire.Batch
	rd := wire.NewReader(bytes.NewReader(b))
	for {
		f, err := rd.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("frame %d: %v", len(out), err)
		}
		out = append(out, f.(wire.Batch))
	}
}

// synthEvents returns n branch events with small, varying PCs.
func synthEvents(n int) []wire.Event {
	evs := make([]wire.Event, n)
	for i := range evs {
		evs[i] = wire.Event{Kind: wire.EvBranch, PC: uint64(0x40 + i%200), Taken: i%3 == 0}
	}
	return evs
}

// TestSendKeepsOnlyTail pins Send's buffering: after any mix of calls
// only the sub-batch tail stays in pend, pend never grows past one
// batch, and the frames on the wire are the same whole-batch split of
// the stream the re-buffering Send produced — every frame full but the
// one Flush ships last.
func TestSendKeepsOnlyTail(t *testing.T) {
	const batch = 64
	c, written := recordClient(t, Config{Batch: batch})
	var all []wire.Event
	for _, n := range []int{5, 3*batch + 17, 100, 47, 0, 10 * batch, batch - 1, 1, 2*batch + 63} {
		evs := synthEvents(n)
		if err := c.Send(evs...); err != nil {
			t.Fatalf("send %d: %v", n, err)
		}
		all = append(all, evs...)
		if r := len(all) % batch; len(c.pend) != r || cap(c.pend) > batch {
			t.Fatalf("after %d events: len(pend) = %d (want %d), cap(pend) = %d (want <= %d)",
				len(all), len(c.pend), r, cap(c.pend), batch)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	frames := decodeBatches(t, written())
	if want := (len(all) + batch - 1) / batch; len(frames) != want {
		t.Fatalf("wrote %d frames for %d events, want %d", len(frames), len(all), want)
	}
	var got []wire.Event
	for i, f := range frames {
		if i < len(frames)-1 && len(f.Events) != batch {
			t.Fatalf("frame %d carries %d events, want %d", i, len(f.Events), batch)
		}
		got = append(got, f.Events...)
	}
	if !reflect.DeepEqual(got, all) {
		t.Fatal("events on the wire differ from the events sent")
	}
}

// TestShipStampsOneSchedule pins the single frame writer: Send and
// SendEncoded frames share one stamping count, each stamped frame
// carries the id its count implies and an origin read at write time,
// the caller's pre-encoded block is never written, and a block with a
// malformed frame is refused without a write.
func TestShipStampsOneSchedule(t *testing.T) {
	const batch, sample = 8, 3
	c, written := recordClient(t, Config{Batch: batch, TraceSample: sample})
	evs := synthEvents(20 + 5*batch + batch)
	block := wire.AppendBatches(nil, evs[20:20+5*batch], batch)
	saved := bytes.Clone(block)
	t0 := uint64(time.Now().UnixNano())
	if err := c.Send(evs[:20]...); err != nil { // 2 frames, 4 events pending
		t.Fatal(err)
	}
	if err := c.SendEncoded(block, 5*batch, 5*batch); err != nil { // 1 + 5 frames
		t.Fatal(err)
	}
	if err := c.Send(evs[20+5*batch:]...); err != nil { // 1 frame
		t.Fatal(err)
	}
	t1 := uint64(time.Now().UnixNano())
	if !bytes.Equal(block, saved) {
		t.Fatal("SendEncoded wrote into the caller's block")
	}

	sent, cnt := c.Sent(), c.flushCnt
	bad := map[string][]byte{
		"truncated header": {3, 0, 0},
		"prefix overruns":  {9, 0, 0, 0, byte(wire.TypeBatch), 0},
		"non-batch frame":  wire.MustAppend(nil, wire.Bye{}),
	}
	for name, blk := range bad {
		if err := c.SendEncoded(blk, 1, 0); err == nil {
			t.Errorf("%s: SendEncoded accepted a malformed block", name)
		}
	}
	if c.Sent() != sent || c.flushCnt != cnt {
		t.Fatalf("refused blocks moved the stream: sent %d→%d, frames %d→%d", sent, c.Sent(), cnt, c.flushCnt)
	}

	base := c.traceBase
	frames := decodeBatches(t, written())
	if len(frames) != 9 {
		t.Fatalf("wrote %d frames, want 9", len(frames))
	}
	var got []wire.Event
	for i, f := range frames {
		got = append(got, f.Events...)
		if i%sample != 0 {
			if f.TraceID != 0 {
				t.Errorf("frame %d stamped %d off the 1-in-%d schedule", i, f.TraceID, sample)
			}
			continue
		}
		if f.TraceID != base+uint64(i) || f.OriginNs < t0 || f.OriginNs > t1 {
			t.Errorf("frame %d stamp = (%d, %d), want (%d, origin in [%d, %d])",
				i, f.TraceID, f.OriginNs, base+uint64(i), t0, t1)
		}
	}
	if !reflect.DeepEqual(got, evs) {
		t.Fatal("stamping changed the events on the wire")
	}
}

// BenchmarkClientSend times Send of one large slice through a client
// whose daemon discards the bytes: encode, mark and one pipe write per
// 512-event batch. Before Send kept only the sub-batch tail, each batch
// also moved the rest of the slice forward, so ns/event grew with n.
func BenchmarkClientSend(b *testing.B) {
	for _, n := range []int{64 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("events=%d", n), func(b *testing.B) {
			c, _ := pipeClient(b, Config{})
			evs := synthEvents(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Send(evs...); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/event")
		})
	}
}
