package server_test

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/ipdsclient"
	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/internal/server"
	"repro/internal/wire"
)

// sendTraced drives one session over the guard trace with every
// sample-th batch stamped (0 = none) and returns the number of event
// batches the client flushed.
func sendTraced(t *testing.T, w *testWorld, program string, batch, sample int) int {
	t.Helper()
	return sendEvents(t, w, program, ipdsclient.Capture(w.art, nil), batch, sample)
}

// sendEvents is sendTraced over an explicit event stream.
func sendEvents(t *testing.T, w *testWorld, program string, trace []wire.Event, batch, sample int) int {
	t.Helper()
	c, err := ipdsclient.Dial(ipdsclient.Config{
		Addr: w.addr, Image: w.hash, Program: program,
		Batch: batch, TraceSample: sample,
	})
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
	return (len(trace) + batch - 1) / batch
}

// TestTraceSpansE2E pins the daemon half of the trace plane: a client
// stamping every batch produces exactly one committed span per event
// batch, each with a complete, monotonic stage chain whose wire leg
// starts at the client's origin stamp; per-session trace ids arrive in
// send order; and TraceE2E derives nonzero quantiles from the records.
func TestTraceSpansE2E(t *testing.T) {
	w := startWorld(t, server.Config{TraceRing: 1024})
	t0 := time.Now().UnixNano()
	batches := sendTraced(t, w, "traced", 8, 1)
	w.shut(t) // spans commit with their reply writes; drain flushes them all

	spans := w.srv.TraceSpans()
	if len(spans) != batches {
		t.Fatalf("committed %d spans for %d event batches", len(spans), batches)
	}
	lastID := map[uint64]uint64{}
	for _, sp := range spans {
		if sp.TraceID == 0 || sp.Events == 0 {
			t.Fatalf("incomplete span record: %+v", sp)
		}
		if sp.OriginNs < t0 || sp.OriginNs > sp.ReadNs {
			t.Errorf("wire leg not monotonic: origin=%d read=%d", sp.OriginNs, sp.ReadNs)
		}
		if !(sp.ReadNs <= sp.DequeueNs && sp.DequeueNs <= sp.VerifyEndNs &&
			sp.VerifyEndNs <= sp.OfferEndNs && sp.OfferEndNs <= sp.AckNs) {
			t.Errorf("span chain not monotonic: %+v", sp)
		}
		// One session, one reader, one core: ids commit in send order.
		if prev, ok := lastID[sp.Session]; ok && sp.TraceID != prev+1 {
			t.Errorf("session %d: trace id %d after %d", sp.Session, sp.TraceID, prev)
		}
		lastID[sp.Session] = sp.TraceID
	}
	p50, p99 := w.srv.TraceE2E()
	if p50 <= 0 || p99 < p50 {
		t.Fatalf("TraceE2E = %d/%d", p50, p99)
	}
}

// TestTraceSamplingAndDisable pins the sampler contracts. The span
// rings are opt-in: an unstamped client leaves them untouched, 1-in-N
// stamping commits only the stamped batches, and TraceRing < 0 keeps
// them empty even for stamping clients. The wait histograms are not:
// the daemon samples every 64th batch of a session on its own, every
// stamped batch is a sample too, and only stamped batches feed
// server_e2e_ns.
func TestTraceSamplingAndDisable(t *testing.T) {
	// A session of a few hundred single-event batches spans several
	// 64-batch sampling periods; the guard trace alone is shorter.
	art, err := pipeline.Compile(guardSrc, ir.DefaultOptions)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	var long []wire.Event
	for i := 0; i < 5; i++ {
		long = append(long, ipdsclient.Capture(art, nil)...)
	}
	// run serves one session of single-event batches, drains the
	// daemon (span commits happen at reply writes; drain flushes
	// them) and checks the span count, both wait histograms and the
	// e2e histogram against the number of batches B it verified.
	run := func(name string, cfg server.Config, sample int, spans, waits, e2e func(b uint64) uint64) {
		t.Helper()
		w := startWorld(t, cfg)
		sent := sendEvents(t, w, name, long, 1, sample)
		w.shut(t)
		b := w.reg.Counter("server_batches_total").Value()
		if b != uint64(sent) || b <= 64 {
			t.Fatalf("%s: daemon verified %d batches, client flushed %d (want > 64)", name, b, sent)
		}
		if n := uint64(len(w.srv.TraceSpans())); n != spans(b) {
			t.Errorf("%s: committed %d spans for %d batches, want %d", name, n, b, spans(b))
		}
		if n := w.reg.Histogram("server_write_wait_ns").Count(); n != waits(b) {
			t.Errorf("%s: server_write_wait_ns saw %d observations for %d batches, want %d", name, n, b, waits(b))
		}
		if n := w.reg.Histogram("server_e2e_ns").Count(); n != e2e(b) {
			t.Errorf("%s: server_e2e_ns saw %d observations for %d batches, want %d", name, n, b, e2e(b))
		}
	}
	none := func(uint64) uint64 { return 0 }
	every64 := func(b uint64) uint64 { return (b + 63) / 64 }
	all := func(b uint64) uint64 { return b }
	run("untraced", server.Config{TraceRing: 1024}, 0, none, every64, none)
	run("stamped", server.Config{TraceRing: 1024}, 1, all, all, all)
	run("ring-off", server.Config{TraceRing: -1}, 1, none, every64, none)

	w := startWorld(t, server.Config{TraceRing: 1024})
	batches := sendTraced(t, w, "sampled", 8, 4)
	w.shut(t)
	want := (batches + 3) / 4 // flushes 0, 4, 8, … carry the stamp
	if n := len(w.srv.TraceSpans()); n != want {
		t.Fatalf("1-in-4 sampling committed %d spans for %d batches, want %d", n, batches, want)
	}
	if p50, p99 := w.srv.TraceE2E(); p50 <= 0 || p99 < p50 {
		t.Fatalf("TraceE2E = %d/%d", p50, p99)
	}
}

// TestTraceHandler pins the HTTP surface: /debug/trace serves a Chrome
// trace-event array covering every daemon-side stage plus the wire
// leg, and ?spans=1 serves the raw records.
func TestTraceHandler(t *testing.T) {
	w := startWorld(t, server.Config{TraceRing: 1024})
	sendTraced(t, w, "traced", 8, 1)
	w.shut(t)

	rec := httptest.NewRecorder()
	w.srv.TraceHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace", nil))
	var evs []struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Tid  int     `json:"tid"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &evs); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	stages := map[string]int{}
	for _, ev := range evs {
		if ev.Ph != "X" || ev.Ts < 0 || ev.Dur < 0 {
			t.Fatalf("malformed trace event: %+v", ev)
		}
		stages[ev.Name]++
	}
	for _, name := range []string{"wire", "queue_wait", "verify", "offer", "write_ack"} {
		if stages[name] == 0 {
			t.Errorf("trace document lacks %q stage events (have %v)", name, stages)
		}
	}

	rec = httptest.NewRecorder()
	w.srv.TraceHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace?spans=1", nil))
	var doc struct {
		Spans []server.SpanRec `json:"spans"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("invalid spans JSON: %v", err)
	}
	if len(doc.Spans) == 0 || doc.Spans[0].TraceID == 0 {
		t.Fatalf("spans document empty or unstamped: %+v", doc.Spans)
	}
}

// TestSpanE2EFallback pins the latency definition: origin-based when
// the client stamped a plausible clock, daemon read→ack otherwise.
func TestSpanE2EFallback(t *testing.T) {
	withOrigin := server.SpanRec{OriginNs: 100, ReadNs: 400, AckNs: 600}
	if got := withOrigin.E2ENs(); got != 500 {
		t.Fatalf("origin-based e2e = %d, want 500", got)
	}
	skewed := server.SpanRec{OriginNs: 700, ReadNs: 400, AckNs: 600}
	if got := skewed.E2ENs(); got != 200 {
		t.Fatalf("skewed-clock fallback e2e = %d, want 200", got)
	}
	none := server.SpanRec{ReadNs: 400, AckNs: 600}
	if got := none.E2ENs(); got != 200 {
		t.Fatalf("originless e2e = %d, want 200", got)
	}
}

// TestTraceSendEncodedMatchesSend is TestSendEncodedMatchesSend with
// tracing on: the client's one frame writer stamps Send's batches and
// a shared pre-encoded block's frames on one schedule. A Send session,
// a SendEncoded session and a session mixing both must give the same
// alarms and acks; each must commit exactly one span per TraceSample
// frames it wrote, with per-session ids one TraceSample apart in send
// order; and stamping must leave the shared block untouched.
func TestTraceSendEncodedMatchesSend(t *testing.T) {
	art, err := pipeline.Compile(guardSrc, ir.DefaultOptions)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	// Several passes, so one trace spans whole batches plus a tail: Send
	// tops up, ships whole batches and buffers, and the mixed session's
	// SendEncoded first flushes the tail its Send left.
	var trace []wire.Event
	for i := 0; i < 5; i++ {
		trace = append(trace, ipdsclient.Capture(art, nil)...)
	}
	trace = ipdsclient.Tamper(trace, 5)
	const loops, batch, sample = 20, 64, 3
	block := wire.AppendBatches(nil, trace, batch)
	saved := bytes.Clone(block)
	var branches uint64
	for _, ev := range trace {
		if ev.Kind == wire.EvBranch {
			branches++
		}
	}

	type result struct {
		alarms []wire.Alarm
		acked  uint64
	}
	run := func(name string, encoded func(i int) bool) result {
		t.Helper()
		w := startWorldWith(t, art, "guard", server.Config{TraceRing: 4096})
		c, err := ipdsclient.Dial(ipdsclient.Config{
			Addr: w.addr, Image: w.hash, Program: name, Batch: batch, TraceSample: sample,
		})
		if err != nil {
			t.Fatalf("%s: dial: %v", name, err)
		}
		defer c.Close()
		for i := 0; i < loops; i++ {
			if encoded(i) {
				err = c.SendEncoded(block, uint64(len(trace)), branches)
			} else {
				err = c.Send(trace...)
			}
			if err != nil {
				t.Fatalf("%s: send %d: %v", name, i, err)
			}
		}
		if err := c.Drain(); err != nil {
			t.Fatalf("%s: drain: %v", name, err)
		}
		w.shut(t)

		frames := w.reg.Counter("server_batches_total").Value()
		spans := w.srv.TraceSpans()
		t.Logf("%s: %d frames, %d spans, %d alarms", name, frames, len(spans), c.AlarmCount())
		if want := (frames + sample - 1) / sample; uint64(len(spans)) != want {
			t.Errorf("%s: committed %d spans for %d frames, want %d", name, len(spans), frames, want)
		}
		for i := 1; i < len(spans); i++ {
			if spans[i].Session != spans[0].Session || spans[i].TraceID != spans[i-1].TraceID+sample {
				t.Errorf("%s: span %d (session %d, id %d) breaks the 1-in-%d schedule after id %d",
					name, i, spans[i].Session, spans[i].TraceID, sample, spans[i-1].TraceID)
				break
			}
		}
		return result{c.Alarms(), c.Acked()}
	}

	ref := run("send", func(int) bool { return false })
	if len(ref.alarms) == 0 {
		t.Fatal("reference session raised no alarms; test is vacuous")
	}
	for name, encoded := range map[string]func(int) bool{
		"sendencoded": func(int) bool { return true },
		"mixed":       func(i int) bool { return i%2 == 1 },
	} {
		got := run(name, encoded)
		if got.acked != ref.acked {
			t.Errorf("%s: acked %d events, want %d", name, got.acked, ref.acked)
		}
		if !reflect.DeepEqual(got.alarms, ref.alarms) {
			t.Errorf("%s: %d alarms diverged from Send's %d", name, len(got.alarms), len(ref.alarms))
		}
	}
	if !bytes.Equal(block, saved) {
		t.Fatal("traced SendEncoded wrote into the shared block")
	}
}
