package server

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/incident"
	"repro/internal/ipds"
	"repro/internal/ipdsclient"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/ring"
	"repro/internal/wire"
	"repro/internal/workload"
)

// TestContextDedupMatchesEveryCapture holds the sessions' incident
// feed — per-pass records folding the pass's alarms by signal and
// bucket, and forensic captures offered only until the session's first
// one for their signal is accepted — to the plain feed it replaces:
// every alarm offered on its own, then every fresh capture of its
// batch. Passes of random length from three tampered sessions
// interleave, and a reference analyzer fed the plain way
// from in-process replays must end up with the same stats and the same
// ranked incidents, fold counts and retained contexts included.
func TestContextDedupMatchesEveryCapture(t *testing.T) {
	w := workload.ByName("telnetd")
	art, err := pipeline.Compile(w.Source, ir.DefaultOptions)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	base := ipdsclient.Capture(art, w.PerfSession)
	srv := New(NewImageStore(nil), Config{IncidentQueue: 1 << 20, Reg: obs.NewRegistry()})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

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
			ss:  testSession(srv, uint64(i+1), discardConn{}, art.Image),
			ref: ipds.New(art.Image, srv.cfg.IPDS),
		}
		for off := 0; off < len(trace); off += 256 {
			st.chunks = append(st.chunks, trace[off:min(off+256, len(trace))])
		}
		streams = append(streams, st)
	}

	ref := incident.NewAnalyzer(incident.Config{})
	rng := rand.New(rand.NewSource(1))
	for live := len(streams); live > 0; {
		live = 0
		for _, st := range streams {
			if len(st.chunks) == 0 {
				continue
			}
			live++
			k := min(1+rng.Intn(32), len(st.chunks))
			for _, evs := range st.chunks[:k] {
				st.ss.verify(&wire.Batch{Events: evs})

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
			st.ss.flush()
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
	srv := New(NewImageStore(nil), Config{IncidentQueue: 64, Reg: obs.NewRegistry()})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	st := srv.incidents
	release := st.stall()
	ss := srv.newSession(nil, nil, nil, "test")
	ss.id = 1
	capture := func(seq uint64) (*ipds.Alarm, *ipds.AlarmContext) {
		a := ipds.Alarm{Seq: seq, PC: 0x99, Func: "act"}
		return &a, &ipds.AlarmContext{Alarm: a, Recorded: seq}
	}

	// The queue is full when the alarm's record is offered, and a slot
	// frees before its capture is: the alarm is dropped, the capture
	// queued.
	st.bound = 0
	a, c := capture(10)
	drops := ss.incDrops
	ss.collect(a)
	ss.offerRecords()
	st.bound = 64
	ss.offerCtx(c, drops)
	if st.dropped.Value() != 1 || st.n != 1 {
		t.Fatalf("dropped %d, queued %d items; want the alarm dropped and its capture queued", st.dropped.Value(), st.n)
	}
	if len(ss.ctxMarks) != 0 {
		t.Fatal("capture marked although its alarm was dropped")
	}

	a, c = capture(20)
	drops = ss.incDrops
	ss.collect(a)
	ss.offerCtx(c, drops)
	if len(ss.ctxMarks) != 1 || st.n != 3 {
		t.Fatalf("%d marks, %d queued items; want the capture marked behind its alarm", len(ss.ctxMarks), st.n)
	}
	a, c = capture(30)
	ss.collect(a)
	ss.offerCtx(c, drops)
	if st.n != 3 {
		t.Fatalf("%d queued items; a marked signal's capture must be skipped, record flush included", st.n)
	}
	ss.offerRecords()
	release()

	incs := srv.Incidents()
	if len(incs) != 1 || incs[0].Context == nil || incs[0].Context.Seq != 20 || incs[0].Alarms != 2 {
		t.Fatalf("incidents %+v, want act@0x99 with 2 alarms and the seq-20 context", incs)
	}
}

// TestIncidentQueueFillsToBound: the queue holds nothing before the
// first alarm, grows by doubling, and holds IncidentQueue records
// however few alarms each folds. Against a stalled stage with a
// 64-record queue, 60 one-alarm passes are all queued, a pass folding
// 20 alarms into 10 records gets its first 4 records in, and the rest
// of the flood is dropped, its alarms counted. Once the stage drains,
// a run that wraps past the ring's end reaches the analyzer whole and
// in order.
func TestIncidentQueueFillsToBound(t *testing.T) {
	srv := New(NewImageStore(nil), Config{IncidentQueue: 64, Reg: obs.NewRegistry()})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	st := srv.incidents
	srv.Incidents() // a drain barrier queues nothing
	release := st.stall()
	if st.buf != nil {
		t.Fatalf("queue holds %d slots before the first alarm", len(st.buf))
	}
	ss := srv.newSession(nil, nil, nil, "test")
	ss.id = 1
	seq := uint64(0)
	// pass raises n alarms over the given number of signals, step
	// Seqs apart, as one session pass.
	pass := func(n, signals int, step uint64) {
		for i := range n {
			seq += step
			ss.collect(&ipds.Alarm{Seq: seq, PC: 0x99 + uint64(i%signals), Func: "act"})
		}
		ss.offerRecords()
	}
	pass(1, 1, 1)
	if len(st.buf) != incQueueMin {
		t.Fatalf("first offer allocated %d slots, want %d", len(st.buf), incQueueMin)
	}
	for range 59 {
		pass(1, 1, 1)
	}
	pass(20, 10, 1)
	pass(1, 1, 1)
	if st.n != 64 || len(st.buf) != 64 || st.dropped.Value() != 13 {
		t.Fatalf("%d records queued in %d slots, %d alarms dropped; want 64 in 64, 13 dropped", st.n, len(st.buf), st.dropped.Value())
	}
	release()
	got := srv.Incidents()
	if s := st.an.Stats(); s.Alarms != 68 || len(got) != 4 {
		t.Fatalf("analyzed %d alarms into %d incidents, want 60+8 into 4", s.Alarms, len(got))
	}

	// The ring's head is back at slot 0: 50 records, one alarm each,
	// move it to slot 50, and the next 30 wrap.
	ss = srv.newSession(nil, nil, nil, "test")
	ss.id = 2
	seq = 0
	pass(50, 1, 512)
	st.sync()
	release = st.stall()
	pass(30, 1, 512)
	if st.head != 50 || st.n != 30 || len(st.buf) != 64 {
		t.Fatalf("head at %d with %d records in %d slots; want 30 from slot 50, wrapping", st.head, st.n, len(st.buf))
	}
	release()
	st.sync()
	st.mu.Lock()
	queued := st.n
	st.mu.Unlock()
	if s := st.an.Stats(); s.Alarms != 148 || st.dropped.Value() != 13 || queued != 0 {
		t.Fatalf("analyzed %d alarms (%d dropped, %d still queued); want 148, 13, 0", s.Alarms, st.dropped.Value(), queued)
	}
	for _, in := range srv.Incidents() {
		if in.PC == 0x99 && (in.Sessions != 2 || in.LastSeq != 80*512) {
			t.Fatalf("incident %+v, want both sessions, the second through seq %d", in, 80*512)
		}
	}
}

// TestBackloggedOfferHelps: a session that offers into a FIFO more
// than a quarter full feeds the analyzer itself, so a flood that the
// consumer cannot keep up with loses nothing. The stage here has no
// consumer at all: 200 one-record passes into a 64-record queue must
// all reach the analyzer, none dropped, and the queue never holds more
// than a quarter of its bound after an offer returns.
func TestBackloggedOfferHelps(t *testing.T) {
	t.Run("no consumer", testBacklogNoConsumer)
	t.Run("concurrent", testBacklogConcurrent)
}

func testBacklogNoConsumer(t *testing.T) {
	an := incident.NewAnalyzer(incident.Config{})
	st := &incidentStage{an: an, pk: ring.NewParker(), bound: 64,
		dropped: obs.NewRegistry().Counter("incident_queue_dropped_total")}
	st.drained.L = &st.mu
	srv := &Server{incidents: st}
	ss := srv.newSession(nil, nil, nil, "test")
	ss.id = 1
	for i := range 200 {
		ss.collect(&ipds.Alarm{Seq: uint64(i+1) * 512, PC: 0x99, Func: "act"})
		ss.offerRecords()
		if st.n > st.bound/4 {
			t.Fatalf("pass %d: %d items queued after the offer, want at most %d", i, st.n, st.bound/4)
		}
	}
	if d := st.dropped.Value(); d != 0 {
		t.Fatalf("%d alarms dropped", d)
	}
	st.feed.Lock()
	st.feedRun()
	st.feed.Unlock()
	if s := an.Stats(); s.Alarms != 200 {
		t.Fatalf("analyzer saw %d alarms, want 200", s.Alarms)
	}
}

// testBacklogConcurrent: eight sessions flood a 64-record queue at once
// beside the live consumer, helping and feeding concurrently. A queue
// held to a quarter of its bound plus one record per producer never
// fills, so nothing is dropped, and every alarm reaches the analyzer.
func testBacklogConcurrent(t *testing.T) {
	const producers, passes = 8, 500
	srv := New(NewImageStore(nil), Config{IncidentQueue: 64, Reg: obs.NewRegistry()})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	var wg sync.WaitGroup
	for p := range producers {
		ss := srv.newSession(nil, nil, nil, "test")
		ss.id = uint64(p + 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range passes {
				ss.collect(&ipds.Alarm{Seq: uint64(i+1) * 512, PC: 0x99, Func: "act"})
				ss.offerRecords()
			}
		}()
	}
	wg.Wait()
	srv.Incidents()
	if d := srv.incidents.dropped.Value(); d != 0 {
		t.Fatalf("%d alarms dropped", d)
	}
	if s := srv.incidents.an.Stats(); s.Alarms != producers*passes {
		t.Fatalf("analyzer saw %d alarms, want %d", s.Alarms, producers*passes)
	}
}
