package server

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/incident"
	"repro/internal/ipds"
	"repro/internal/ipdsclient"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/wire"
	"repro/internal/workload"
)

// TestContextDedupMatchesEveryCapture holds the verifier's incident
// feed — per-pass slabs, and forensic captures offered only until the
// session's first one for their signal is accepted — to the plain
// feed it replaces: every alarm offered on its own, then every fresh
// capture of its batch. Three tampered sessions share one verifier,
// passes of random length interleave them, and a reference analyzer
// fed the plain way from in-process replays must end up with the same
// stats and the same ranked incidents, retained contexts included.
func TestContextDedupMatchesEveryCapture(t *testing.T) {
	w := workload.ByName("telnetd")
	art, err := pipeline.Compile(w.Source, ir.DefaultOptions)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	base := ipdsclient.Capture(art, w.PerfSession)
	store := NewImageStore(nil)
	store.Add("telnetd", art.Image)
	srv := New(store, Config{Verifiers: 1, IncidentQueue: 1 << 20, Reg: obs.NewRegistry()})
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

	type stream struct {
		ss     *session
		ref    *ipds.Machine
		chunks [][]wire.Event
		seen   uint64 // ref's capture high-water mark
	}
	var streams []*stream
	for i, stride := range []int{5, 97, 13} {
		trace := ipdsclient.Tamper(base, stride)
		st := &stream{
			ss: &session{
				id: uint64(i + 1), srv: srv, conn: discardConn{}, v: v,
				m:         ipds.New(art.Image, srv.cfg.IPDS),
				program:   "telnetd",
				forensics: true,
				started:   time.Now(),
			},
			ref: ipds.New(art.Image, srv.cfg.IPDS),
		}
		for off := 0; off < len(trace); off += 256 {
			st.chunks = append(st.chunks, trace[off:min(off+256, len(trace))])
		}
		streams = append(streams, st)
	}

	ref := incident.NewAnalyzer(incident.Config{})
	rng := rand.New(rand.NewSource(1))
	var tasks [verifyPop]task
	for live := len(streams); live > 0; {
		live = 0
		for _, st := range streams {
			if len(st.chunks) == 0 {
				continue
			}
			live++
			k := min(1+rng.Intn(verifyPop), len(st.chunks))
			for j, evs := range st.chunks[:k] {
				bt := srv.batchPool.Get().(*wire.Batch)
				bt.Events = evs
				tasks[j] = task{b: bt}

				// The plain feed: every alarm, then every fresh capture.
				for _, a := range st.ref.OnBatch(evs) {
					ref.Observe(incident.AlarmEvent{Session: st.ss.id, Seq: a.Seq, PC: a.PC, Func: a.Func, Taken: a.Taken})
				}
				fresh := int(st.ref.CtxCaptured() - st.seen)
				st.seen = st.ref.CtxCaptured()
				n := st.ref.ContextCount()
				for i := n - min(fresh, n); i < n; i++ {
					ref.ObserveContext(st.ref.ContextAt(i))
				}
			}
			v.pass(st.ss, tasks[:k])
			st.chunks = st.chunks[k:]
		}
	}

	got := srv.Incidents()
	if len(got) == 0 {
		t.Fatal("no incidents from three tampered sessions")
	}
	if want := ref.Incidents(); !reflect.DeepEqual(got, want) {
		t.Fatalf("incidents diverge from the every-capture feed:\ngot:  %+v\nwant: %+v", got, want)
	}
	if got, want := srv.incidents.an.Stats(), ref.Stats(); got != want {
		t.Fatalf("analyzer stats %+v, want %+v", got, want)
	}
	if d := srv.incidents.dropped.Value(); d != 0 {
		t.Fatalf("%d observations dropped; the comparison needs none", d)
	}
	withCtx, skipped := 0, false
	for _, in := range got {
		if in.Context != nil {
			withCtx++
		}
	}
	for _, st := range streams {
		// Without drops a capture is offered only while its signal is
		// unmarked, and each offer marks it: captures past the marks
		// were skipped.
		if st.ss.m.CtxCaptured() > uint64(len(st.ss.ctxMarks)) {
			skipped = true
		}
	}
	if withCtx == 0 || !skipped {
		t.Fatalf("test exercised nothing: %d incidents with a context, skipped=%v", withCtx, skipped)
	}
}

// TestContextMarkNeedsItsAlarm walks the mark rule through a drop: a
// capture whose alarm was dropped from the incident queue is offered
// but not marked, even though the capture itself was queued — the
// analyzer drops a context whose signal it has not seen, so the
// session's next capture of that signal must still be offered. That
// next capture, its alarm accepted, is marked, and the one after it is
// skipped.
func TestContextMarkNeedsItsAlarm(t *testing.T) {
	srv := New(NewImageStore(nil), Config{Verifiers: 1, IncidentQueue: 64, Reg: obs.NewRegistry()})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	st := srv.incidents
	st.sync() // the consumer is ranging over the live queue
	release := st.stall()
	v := newVerifier(srv, len(srv.verifiers))
	ss := &session{id: 1, srv: srv, v: v}
	capture := func(seq uint64) (*ipds.Alarm, *ipds.AlarmContext) {
		a := ipds.Alarm{Seq: seq, PC: 0x99, Func: "act"}
		return &a, &ipds.AlarmContext{Alarm: a, Recorded: seq}
	}

	// The queue's alarm ring is full: the alarm is dropped, its
	// capture still finds a slot.
	st.queued.Store(int64(cap(st.ch)))
	a, c := capture(10)
	drops := ss.incDrops
	v.collect(ss, a)
	v.offerCtx(ss, c, drops)
	if st.dropped.Value() != 1 || len(st.ch) != 1 {
		t.Fatalf("dropped %d, queued %d messages; want the alarm dropped and its capture queued", st.dropped.Value(), len(st.ch))
	}
	if len(ss.ctxMarks) != 0 {
		t.Fatal("capture marked although its alarm was dropped")
	}

	st.queued.Store(0)
	a, c = capture(20)
	drops = ss.incDrops
	v.collect(ss, a)
	v.offerCtx(ss, c, drops)
	if len(ss.ctxMarks) != 1 || len(st.ch) != 3 {
		t.Fatalf("%d marks, %d queued messages; want the capture marked behind its alarm", len(ss.ctxMarks), len(st.ch))
	}
	a, c = capture(30)
	v.collect(ss, a)
	v.offerCtx(ss, c, drops)
	if len(st.ch) != 3 {
		t.Fatalf("%d queued messages; a marked signal's capture must be skipped, slab flush included", len(st.ch))
	}
	v.offerSlab(ss)
	release()

	incs := srv.Incidents()
	if len(incs) != 1 || incs[0].Context == nil || incs[0].Context.Seq != 20 || incs[0].Alarms != 2 {
		t.Fatalf("incidents %+v, want act@0x99 with 2 alarms and the seq-20 context", incs)
	}
}

// TestIncidentQueueFillsToBound: the queue holds IncidentQueue alarms
// however short the runs they arrive in. Against a stalled stage with
// a 64-alarm queue, 60 one-alarm passes are all queued, a 10-alarm pass
// gets its first 4 in and the rest of the flood is dropped (counted).
// Once the stage drains, a run that wraps past the ring's end reaches
// the analyzer whole and in order.
func TestIncidentQueueFillsToBound(t *testing.T) {
	srv := New(NewImageStore(nil), Config{Verifiers: 1, IncidentQueue: 64, Reg: obs.NewRegistry()})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	st := srv.incidents
	st.sync() // the consumer is ranging over the live queue
	release := st.stall()
	v := newVerifier(srv, len(srv.verifiers))
	ss := &session{id: 1, srv: srv, v: v}
	seq := uint64(0)
	pass := func(n int) {
		for range n {
			seq++
			v.collect(ss, &ipds.Alarm{Seq: seq, PC: 0x99, Func: "act"})
		}
		v.offerSlab(ss)
	}
	for range 60 {
		pass(1)
	}
	pass(10)
	pass(1)
	if q, msgs, d := st.queued.Load(), len(st.ch), st.dropped.Value(); q != 64 || msgs != 61 || d != 7 {
		t.Fatalf("%d alarms in %d runs queued, %d dropped; want 64 in 61, 7 dropped", q, msgs, d)
	}
	release()
	if got := srv.Incidents(); len(got) != 1 || got[0].Alarms != 64 || got[0].LastSeq != 64 {
		t.Fatalf("incidents %+v, want act@0x99 with alarms 1..64", got)
	}

	// The ring's tail is back at slot 0: 50 alarms move it to slot 50,
	// and the next 30 wrap.
	ss = &session{id: 2, srv: srv, v: v}
	seq = 0
	pass(50)
	st.sync()
	release = st.stall()
	pass(30)
	if st.tail != 16 || len(st.ch) != 1 {
		t.Fatalf("tail at %d with %d runs queued; want one run wrapped to 16", st.tail, len(st.ch))
	}
	release()
	st.sync()
	if s := st.an.Stats(); s.Alarms != 144 || st.dropped.Value() != 7 || st.queued.Load() != 0 {
		t.Fatalf("analyzed %d alarms (%d dropped, %d still queued); want 144, 7, 0", s.Alarms, st.dropped.Value(), st.queued.Load())
	}
	for _, in := range srv.Incidents() {
		if in.Sessions != 2 || in.LastSeq != 80 {
			t.Fatalf("incident %+v, want both sessions, the second through seq 80", in)
		}
	}
}
