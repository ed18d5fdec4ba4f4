package server_test

import (
	"context"
	"encoding/binary"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/ipds"
	"repro/internal/ipdsclient"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/server"
	"repro/internal/tcache"
	"repro/internal/wire"
)

// guardSrc is a small program with a checkable correlation: `priv` is
// set by branch outcome and consulted later, so flipping either branch
// direction in a captured trace contradicts the tables.
const guardSrc = `
int priv;

int check(int code) {
	if (code == 7) {
		priv = 1;
	} else {
		priv = 0;
	}
	return priv;
}

int act(int n) {
	int i;
	int sum;
	sum = 0;
	for (i = 0; i < n; i = i + 1) {
		if (priv == 1) {
			sum = sum + 2;
		} else {
			sum = sum + 1;
		}
	}
	return sum;
}

int main() {
	int r;
	r = check(7);
	r = r + act(5);
	r = check(3);
	r = r + act(5);
	return r;
}
`

// testWorld is one compiled program served by a live daemon.
type testWorld struct {
	art  *pipeline.Artifacts
	hash [32]byte
	srv  *server.Server
	addr string
	reg  *obs.Registry
}

// startWorld compiles guardSrc, serves it on a loopback listener and
// registers cleanup. Shutdown is owned by the cleanup unless the test
// calls shut() itself.
func startWorld(t *testing.T, cfg server.Config) *testWorld {
	t.Helper()
	art, err := pipeline.Compile(guardSrc, ir.DefaultOptions)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return startWorldWith(t, art, "guard", cfg)
}

// startWorldWith serves an already-compiled artifact set.
func startWorldWith(t testing.TB, art *pipeline.Artifacts, name string, cfg server.Config) *testWorld {
	t.Helper()
	reg := obs.NewRegistry()
	if cfg.Reg == nil {
		cfg.Reg = reg
	} else {
		reg = cfg.Reg
	}
	store := server.NewImageStore(nil)
	hash := store.Add(name, art.Image)
	srv := server.New(store, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	w := &testWorld{art: art, hash: hash, srv: srv, addr: ln.Addr().String(), reg: reg}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx) // second calls error harmlessly
	})
	return w
}

// shut drains the server now and fails the test if the drain stalls.
func (w *testWorld) shut(t *testing.T) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := w.srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// waitSessions polls until the active session count reaches want.
func (w *testWorld) waitSessions(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if w.srv.ActiveSessions() == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("sessions: got %d, want %d", w.srv.ActiveSessions(), want)
}

func TestRoundTripMatchesLocal(t *testing.T) {
	w := startWorld(t, server.Config{})
	trace := ipdsclient.Capture(w.art, nil)
	if len(trace) == 0 {
		t.Fatal("empty capture")
	}
	tampered := ipdsclient.Tamper(trace, 5)
	ref := ipdsclient.ReplayLocal(ipds.New(w.art.Image, ipds.DefaultConfig), tampered)
	if len(ref) == 0 {
		t.Fatal("tampered trace raised no reference alarms; test is vacuous")
	}

	c, err := ipdsclient.Dial(ipdsclient.Config{Addr: w.addr, Image: w.hash, Program: "rt", Batch: 8})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if err := c.Send(tampered...); err != nil {
		t.Fatalf("send: %v", err)
	}
	if err := c.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	requireAlarmsEqual(t, ref, c.Alarms())
}

// requireAlarmsEqual asserts the remote alarm set is byte-identical to
// the local machine's, field by field.
func requireAlarmsEqual(t *testing.T, ref []ipds.Alarm, got []wire.Alarm) {
	t.Helper()
	if len(got) != len(ref) {
		t.Fatalf("alarms: got %d, want %d", len(got), len(ref))
	}
	for i, a := range got {
		r := ref[i]
		if a.Seq != r.Seq || a.PC != r.PC || a.Func != r.Func ||
			a.Slot != uint32(r.Slot) || a.Expected != uint8(r.Expected) || a.Taken != r.Taken {
			t.Fatalf("alarm %d: got %+v, want %+v", i, a, r)
		}
	}
}

func TestHelloUnknownImage(t *testing.T) {
	w := startWorld(t, server.Config{})
	bogus := w.hash
	bogus[0] ^= 0xff
	_, err := ipdsclient.Dial(ipdsclient.Config{Addr: w.addr, Image: bogus, Program: "bogus"})
	if err == nil {
		t.Fatal("dial with unknown image succeeded")
	}
	if !strings.Contains(err.Error(), wire.ErrUnknownImage.String()) {
		t.Fatalf("error %q does not name %s", err, wire.ErrUnknownImage)
	}
	w.waitSessions(t, 0)
}

func TestHelloBadVersion(t *testing.T) {
	w := startWorld(t, server.Config{})
	conn, err := net.Dial("tcp", w.addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	b, err := wire.Append(nil, wire.Hello{Version: wire.Version + 9, Image: w.hash})
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	if _, err := conn.Write(b); err != nil {
		t.Fatalf("write: %v", err)
	}
	f, err := wire.NewReader(conn).Next()
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	e, ok := f.(wire.Error)
	if !ok || e.Code != wire.ErrBadVersion {
		t.Fatalf("got %+v, want ErrBadVersion", f)
	}
}

func TestClientVanishesMidBatch(t *testing.T) {
	w := startWorld(t, server.Config{})
	conn, err := net.Dial("tcp", w.addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	hello, err := wire.Append(nil, wire.Hello{Version: wire.Version, Image: w.hash, Program: "vanish"})
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	if _, err := conn.Write(hello); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := wire.NewReader(conn).Next(); err != nil {
		t.Fatalf("helloack: %v", err)
	}
	w.waitSessions(t, 1)

	// A length prefix promising 500 bytes, then only 3 of them, then
	// gone: the server must treat the truncated frame as a vanished
	// peer and retire the session without wedging the daemon.
	var part [7]byte
	binary.LittleEndian.PutUint32(part[:4], 500)
	part[4] = byte(wire.TypeBatch)
	if _, err := conn.Write(part[:]); err != nil {
		t.Fatalf("write: %v", err)
	}
	conn.Close()
	w.waitSessions(t, 0)
}

func TestIdleEviction(t *testing.T) {
	w := startWorld(t, server.Config{ReadTimeout: 80 * time.Millisecond})
	c, err := ipdsclient.Dial(ipdsclient.Config{Addr: w.addr, Image: w.hash, Program: "idle"})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	select {
	case <-c.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("idle session was not evicted")
	}
	e := c.ServerError()
	if e == nil || e.Code != wire.ErrIdle {
		t.Fatalf("server error = %+v, want ErrIdle", e)
	}
	w.waitSessions(t, 0)
	if got := w.reg.Counter("server_evictions_total").Value(); got != 1 {
		t.Fatalf("server_evictions_total = %d, want 1", got)
	}
}

// TestGracefulDrainDeliversAlarms sends a tampered trace with no Bye,
// then shuts the server down: every already-queued batch must still be
// verified and its alarms delivered before the final Ack and Bye.
func TestGracefulDrainDeliversAlarms(t *testing.T) {
	w := startWorld(t, server.Config{})
	trace := ipdsclient.Tamper(ipdsclient.Capture(w.art, nil), 5)
	ref := ipdsclient.ReplayLocal(ipds.New(w.art.Image, ipds.DefaultConfig), trace)
	if len(ref) == 0 {
		t.Fatal("no reference alarms; test is vacuous")
	}

	c, err := ipdsclient.Dial(ipdsclient.Config{Addr: w.addr, Image: w.hash, Program: "drainee", Batch: 4})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if err := c.Send(trace...); err != nil {
		t.Fatalf("send: %v", err)
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	w.shut(t)
	select {
	case <-c.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("drain never ended the session")
	}
	requireAlarmsEqual(t, ref, c.Alarms())
	if got, want := c.Acked(), c.Sent(); got != want {
		t.Fatalf("drain acked %d of %d events", got, want)
	}

	// New connections are refused while (and after) draining.
	if _, err := ipdsclient.Dial(ipdsclient.Config{Addr: w.addr, Image: w.hash, Timeout: time.Second}); err == nil {
		t.Fatal("dial succeeded after shutdown")
	}
}

// TestDrainFlushesPooledWriterBuffers stresses the reply path under
// drain: single-batch-per-frame traffic with hundreds of alarms, every
// alarm, ack and the closing Ack+Bye coalesced into the session's
// reused write buffer while the server is shutting down. Every frame
// must still arrive intact and in order — a buffer reused before its
// bytes hit the wire would corrupt the alarm set or lose the final
// Ack.
func TestDrainFlushesPooledWriterBuffers(t *testing.T) {
	w := startWorld(t, server.Config{})
	trace := ipdsclient.Tamper(ipdsclient.Capture(w.art, nil), 5)
	var ref []ipds.Alarm
	m := ipds.New(w.art.Image, ipds.DefaultConfig)
	// Loop the trace so hundreds of alarm frames pass through the
	// session's write buffer.
	const loops = 50
	for i := 0; i < loops; i++ {
		ref = append(ref, ipdsclient.ReplayLocalBatched(m, trace, 4)...)
	}
	if len(ref) < 100 {
		t.Fatalf("only %d reference alarms; not enough reply traffic", len(ref))
	}

	c, err := ipdsclient.Dial(ipdsclient.Config{Addr: w.addr, Image: w.hash, Program: "pooldrain", Batch: 4})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	for i := 0; i < loops; i++ {
		if err := c.Send(trace...); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	w.shut(t)
	select {
	case <-c.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("drain never ended the session")
	}
	requireAlarmsEqual(t, ref, c.Alarms())
	if got, want := c.Acked(), c.Sent(); got != want {
		t.Fatalf("drain acked %d of %d events; the final Ack was lost", got, want)
	}
}

func TestShutdownTwiceErrors(t *testing.T) {
	w := startWorld(t, server.Config{})
	w.shut(t)
	if err := w.srv.Shutdown(context.Background()); err == nil {
		t.Fatal("second Shutdown returned nil")
	}
}

func TestServerMetrics(t *testing.T) {
	w := startWorld(t, server.Config{})
	trace := ipdsclient.Capture(w.art, nil)
	c, err := ipdsclient.Dial(ipdsclient.Config{Addr: w.addr, Image: w.hash, Program: "metrics", Batch: 16})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if err := c.Send(trace...); err != nil {
		t.Fatalf("send: %v", err)
	}
	if err := c.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	w.waitSessions(t, 0)
	if got := w.reg.Counter("server_events_total").Value(); got != uint64(len(trace)) {
		t.Fatalf("server_events_total = %d, want %d", got, len(trace))
	}
	if got := w.reg.Counter("server_batches_total").Value(); got == 0 {
		t.Fatal("server_batches_total = 0")
	}
	if got := w.reg.Counter("server_sessions_total").Value(); got != 1 {
		t.Fatalf("server_sessions_total = %d, want 1", got)
	}
	if got := w.reg.Gauge("server_sessions_active").Value(); got != 0 {
		t.Fatalf("server_sessions_active = %d, want 0", got)
	}
}

// TestBenignTraceRaisesNoAlarms is the remote false-positive check: an
// untampered capture verifies silently.
func TestBenignTraceRaisesNoAlarms(t *testing.T) {
	w := startWorld(t, server.Config{})
	trace := ipdsclient.Capture(w.art, nil)
	c, err := ipdsclient.Dial(ipdsclient.Config{Addr: w.addr, Image: w.hash, Program: "benign"})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if err := c.Send(trace...); err != nil {
		t.Fatalf("send: %v", err)
	}
	if err := c.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if n := len(c.Alarms()); n != 0 {
		t.Fatalf("benign trace raised %d alarms", n)
	}
}

func TestServeAfterShutdownRefused(t *testing.T) {
	w := startWorld(t, server.Config{})
	w.shut(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	if err := w.srv.Serve(ln); err == nil {
		t.Fatal("Serve after Shutdown returned nil")
	}
}

func TestProtocolErrorOnUnexpectedFrame(t *testing.T) {
	w := startWorld(t, server.Config{})
	conn, err := net.Dial("tcp", w.addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	b, err := wire.Append(nil, wire.Hello{Version: wire.Version, Image: w.hash, Program: "odd"})
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	if _, err := conn.Write(b); err != nil {
		t.Fatalf("write: %v", err)
	}
	rd := wire.NewReader(conn)
	if _, err := rd.Next(); err != nil {
		t.Fatalf("helloack: %v", err)
	}
	// A second Hello mid-session is a protocol error.
	if _, err := conn.Write(b); err != nil {
		t.Fatalf("write: %v", err)
	}
	sawErr := false
	for {
		f, err := rd.Next()
		if err != nil {
			break
		}
		if e, ok := f.(wire.Error); ok {
			if e.Code != wire.ErrProtocol {
				t.Fatalf("error code = %v, want ErrProtocol", e.Code)
			}
			sawErr = true
		}
		if _, ok := f.(wire.Bye); ok {
			break
		}
	}
	if !sawErr {
		t.Fatal("no ErrProtocol frame for mid-session Hello")
	}
	w.waitSessions(t, 0)
}

func TestResolveFromBlobCache(t *testing.T) {
	// An image added through one store is resolvable by a second store
	// sharing the same disk cache — the restarted-daemon path: no
	// recompilation for a hash the old process served.
	art, err := pipeline.Compile(guardSrc, ir.DefaultOptions)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	cache, err := tcache.New(16, t.TempDir())
	if err != nil {
		t.Fatalf("tcache: %v", err)
	}
	st1 := server.NewImageStore(cache)
	h := st1.Add("guard", art.Image)

	st2 := server.NewImageStore(cache)
	img, ok := st2.Resolve(h)
	if !ok {
		t.Fatal("fresh store could not resolve via shared cache")
	}
	if got := img.Hash(); got != h {
		t.Fatalf("resolved image hashes to %x, want %x", got[:4], h[:4])
	}
	if _, ok := st2.Resolve([32]byte{1, 2, 3}); ok {
		t.Fatal("resolved a hash that was never added")
	}
}

// TestSendEncodedMatchesSend replays the same tampered trace through a
// per-event Send session and a pre-encoded SendEncoded session (the
// load generator's fast path) and requires identical alarms and acks:
// the pre-encoded block is the same event sequence, so only frame
// boundaries may differ, and the daemon must not care.
func TestSendEncodedMatchesSend(t *testing.T) {
	w := startWorld(t, server.Config{})
	trace := ipdsclient.Tamper(ipdsclient.Capture(w.art, nil), 5)
	if len(trace) == 0 {
		t.Fatal("empty capture")
	}
	const loops = 20

	run := func(encoded bool) ([]wire.Alarm, uint64) {
		c, err := ipdsclient.Dial(ipdsclient.Config{
			Addr: w.addr, Image: w.hash, Program: "sendenc", Batch: 64,
		})
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer c.Close()
		if encoded {
			frames := wire.AppendBatches(nil, trace, c.Batch())
			var branches uint64
			for _, ev := range trace {
				if ev.Kind == wire.EvBranch {
					branches++
				}
			}
			for i := 0; i < loops; i++ {
				if err := c.SendEncoded(frames, uint64(len(trace)), branches); err != nil {
					t.Fatalf("send encoded: %v", err)
				}
			}
		} else {
			for i := 0; i < loops; i++ {
				if err := c.Send(trace...); err != nil {
					t.Fatalf("send: %v", err)
				}
			}
		}
		if err := c.Drain(); err != nil {
			t.Fatalf("drain: %v", err)
		}
		return c.Alarms(), c.Acked()
	}

	refAlarms, refAcked := run(false)
	gotAlarms, gotAcked := run(true)
	if len(refAlarms) == 0 {
		t.Fatal("reference session raised no alarms; test is vacuous")
	}
	if gotAcked != refAcked {
		t.Fatalf("acked %d events via SendEncoded, want %d", gotAcked, refAcked)
	}
	if !reflect.DeepEqual(gotAlarms, refAlarms) {
		t.Fatalf("SendEncoded alarms diverged:\n got %d alarms %+v\nwant %d alarms %+v",
			len(gotAlarms), gotAlarms[:min(3, len(gotAlarms))], len(refAlarms), refAlarms[:min(3, len(refAlarms))])
	}
}
