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
	"repro/internal/wire"
	"repro/internal/workload"
)

// TestContextDedupMatchesEveryCapture holds the sessions' incident
// feed — per-pass records folding the pass's alarms by signal and
// bucket, each fresh forensic capture fed behind them — to the plain
// feed it replaces: every alarm observed on its own, then every fresh
// capture of its batch. Passes of random length from three tampered sessions
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
	srv := New(NewImageStore(nil), Config{Reg: obs.NewRegistry()})
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
	if got, want := srv.incidents.Stats(), ref.Stats(); got != want {
		t.Fatalf("analyzer stats %+v, want %+v", got, want)
	}
	withCtx := 0
	for _, in := range got {
		if in.Context != nil {
			withCtx++
		}
	}
	if withCtx == 0 {
		t.Fatal("test exercised nothing: no incident with a context")
	}
}

// TestConcurrentFeed: eight sessions feed one live server's analyzer
// at once, each on its own goroutine, and every alarm reaches it. Run
// under -race by `make race-server`.
func TestConcurrentFeed(t *testing.T) {
	const producers, passes = 8, 500
	srv := New(NewImageStore(nil), Config{Reg: obs.NewRegistry()})
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
	if s := srv.incidents.Stats(); s.Alarms != producers*passes {
		t.Fatalf("analyzer saw %d alarms, want %d", s.Alarms, producers*passes)
	}
}

// TestFullFolderFeeds: a pass that folds more than foldCap records
// feeds the full folder before the pass ends. Alarms a bucket apart
// fold one record each.
func TestFullFolderFeeds(t *testing.T) {
	srv := New(NewImageStore(nil), Config{Reg: obs.NewRegistry()})
	ss := srv.newSession(nil, nil, nil, "test")
	ss.id = 1
	for i := range foldCap + 1 {
		ss.collect(&ipds.Alarm{Seq: uint64(i+1) * 512, PC: 0x99, Func: "act"})
	}
	if s := srv.incidents.Stats(); s.Alarms != foldCap {
		t.Fatalf("analyzer saw %d alarms before the pass ended, want the full folder's %d", s.Alarms, foldCap)
	}
	ss.offerRecords()
	if s := srv.incidents.Stats(); s.Alarms != foldCap+1 {
		t.Fatalf("analyzer saw %d alarms after the pass, want %d", s.Alarms, foldCap+1)
	}
}
