package server_test

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/incident"
	"repro/internal/ipds"
	"repro/internal/ipdsclient"
	"repro/internal/pipeline"
	"repro/internal/server"
	"repro/internal/tables"
	"repro/internal/wire"
)

// The incident-pipeline gate: a seeded persistent corruption (one
// branch bent the same wrong way from a mid-run onset, over sparse
// tamper noise) must come back from a live daemon as the #1 ranked
// incident, the alarm flood must fold by >= 95%, and the daemon's list
// must equal — field for field — an in-process replay of the same
// per-session streams through a fresh incident.Analyzer. Run by
// `make incident-gate` under the race detector.

// buildFloodScenario loops the captured guard trace reps times, lays a
// sparse Tamper drip across the whole run, then bends one branch site
// into a thrash from the midpoint onward — picking, by local replay,
// the PC that alarms loudest, i.e. the most flood-like seedable
// corruption this program admits.
func buildFloodScenario(t *testing.T, art *pipeline.Artifacts, reps int) (evs []wire.Event, floodPC uint64, onset int) {
	t.Helper()
	base := ipdsclient.Capture(art, nil)
	if len(base) == 0 {
		t.Fatal("empty capture")
	}
	long := make([]wire.Event, 0, reps*len(base))
	for i := 0; i < reps; i++ {
		long = append(long, base...)
	}
	noisy := ipdsclient.Tamper(long, 1009)
	onset = len(noisy) / 2

	best := -1
	seen := map[uint64]bool{}
	for _, ev := range base {
		if ev.Kind != wire.EvBranch || seen[ev.PC] {
			continue
		}
		seen[ev.PC] = true
		cand := ipdsclient.TamperPoint(noisy, ev.PC, onset)
		n := len(ipdsclient.ReplayLocalBatched(ipds.New(art.Image, ipds.DefaultConfig), cand, 512))
		if n > best {
			best, floodPC, evs = n, ev.PC, cand
		}
	}
	if best < 500 {
		t.Fatalf("loudest seedable flood raises only %d alarms; scenario too quiet for a gate", best)
	}
	return evs, floodPC, onset
}

// replayIncidents feeds the scenario through fresh local machines — one
// per session, numbered 1..sessions — into a fresh analyzer, and
// returns its ranked list plus the total alarm count. This is the
// reference the live daemon must match exactly.
func replayIncidents(img *tables.Image, evs []wire.Event, sessions int) ([]incident.Incident, int) {
	an := incident.NewAnalyzer(incident.Config{})
	alarms := 0
	for s := 1; s <= sessions; s++ {
		m := ipds.New(img, ipds.DefaultConfig)
		for _, a := range ipdsclient.ReplayLocalBatched(m, evs, 512) {
			an.Observe(incident.AlarmEvent{
				Session: uint64(s), Seq: a.Seq, PC: a.PC, Func: a.Func, Taken: a.Taken,
			})
			alarms++
		}
	}
	return an.Incidents(), alarms
}

func TestIncidentGateFloodRanksFirst(t *testing.T) {
	w := startWorld(t, server.Config{})
	trace, floodPC, _ := buildFloodScenario(t, w.art, 600)
	const sessions = 4

	ref, refAlarms := replayIncidents(w.art.Image, trace, sessions)
	if len(ref) == 0 {
		t.Fatal("reference replay produced no incidents")
	}
	top := ref[0]
	if top.PC != floodPC {
		t.Fatalf("reference top incident is %s@%#x, want the seeded corruption at %#x",
			top.Func, top.PC, floodPC)
	}
	if top.ID != 1 || !top.Root {
		t.Fatalf("seeded corruption ranked ID=%d root=%v, want the #1 root incident", top.ID, top.Root)
	}
	if top.Sessions != sessions {
		t.Fatalf("top incident seen in %d sessions, want %d", top.Sessions, sessions)
	}
	if top.Bursts == 0 {
		t.Fatal("flood onset raised no alarm-rate change-points")
	}
	if red := 1 - float64(len(ref))/float64(refAlarms); red < 0.95 {
		t.Fatalf("fold reduction %.4f < 0.95 (%d incidents from %d alarms)",
			red, len(ref), refAlarms)
	}

	// Live run: the same trace from 4 concurrent sessions.
	clients := make([]*ipdsclient.Client, sessions)
	for i := range clients {
		c, err := ipdsclient.Dial(ipdsclient.Config{
			Addr: w.addr, Image: w.hash, Program: fmt.Sprintf("flood#%d", i),
			Batch: 512, DiscardCtx: true,
		})
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		defer c.Close()
		clients[i] = c
	}
	var wg sync.WaitGroup
	sendErrs := make([]error, sessions)
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *ipdsclient.Client) {
			defer wg.Done()
			sendErrs[i] = c.Send(trace...)
		}(i, c)
	}
	wg.Wait()
	for i, err := range sendErrs {
		if err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	// Drain in order; the last session to leave sees the complete list.
	for _, c := range clients {
		if err := c.Drain(); err != nil {
			t.Fatalf("drain: %v", err)
		}
	}
	last := clients[sessions-1]

	di := w.srv.DebugIncidents()
	if !di.Enabled {
		t.Fatal("incident stage disabled in default config")
	}
	// Every session has ended, and its end freed its dedup filter.
	if n := w.reg.Gauge("incident_dedup_filters").Value(); n != 0 {
		t.Fatalf("%d dedup filters held after every session ended", n)
	}
	if di.Alarms != uint64(refAlarms) {
		t.Fatalf("daemon analyzed %d alarms, reference %d", di.Alarms, refAlarms)
	}
	if di.Reduction < 0.95 {
		t.Fatalf("live fold reduction %.4f < 0.95", di.Reduction)
	}

	// Determinism: the live list must equal the in-process replay field
	// for field. Forensic contexts are live-only (the replay feeds bare
	// alarms), so they are stripped before the comparison and checked
	// separately.
	live := make([]incident.Incident, len(di.List))
	copy(live, di.List)
	for i := range live {
		live[i].Context = nil
	}
	if !reflect.DeepEqual(live, ref) {
		t.Fatalf("live incidents diverge from in-process replay:\n live %+v\n want %+v", live, ref)
	}
	if ctx := di.List[0].Context; ctx == nil {
		t.Fatal("top incident carries no forensic context")
	} else if ctx.Seq < di.List[0].FirstSeq || ctx.Seq > di.List[0].LastSeq {
		t.Fatalf("context seq %d outside incident range [%d, %d]",
			ctx.Seq, di.List[0].FirstSeq, di.List[0].LastSeq)
	}

	// The wire copy: the last-drained client received the ranked list as
	// Incident frames during its graceful drain.
	frames := last.Incidents()
	want := min(len(di.List), 16)
	if len(frames) != want {
		t.Fatalf("client received %d incident frames, want %d", len(frames), want)
	}
	lt := di.List[0]
	wantTop := wire.Incident{
		ID:         uint32(lt.ID),
		ScoreMilli: uint64(lt.Score*1000 + 0.5),
		Alarms:     lt.Alarms,
		Folded:     lt.Folded,
		Sessions:   uint32(lt.Sessions),
		Bursts:     uint32(lt.Bursts),
		PC:         lt.PC,
		FirstSeq:   lt.FirstSeq,
		LastSeq:    lt.LastSeq,
		Func:       lt.Func,
		Evidence:   strings.Join(lt.Evidence, "; "),
	}
	if !reflect.DeepEqual(frames[0], wantTop) {
		t.Fatalf("top incident frame:\n got %+v\nwant %+v", frames[0], wantTop)
	}

	// Metrics satellite: the pipeline's registry series.
	if got := w.reg.Counter("incident_alarms_total").Value(); got != uint64(refAlarms) {
		t.Fatalf("incident_alarms_total = %d, want %d", got, refAlarms)
	}
	if w.reg.Counter("incident_dedup_folds_total").Value() == 0 {
		t.Fatal("incident_dedup_folds_total = 0 after a flood")
	}
	if w.reg.Counter("incident_changepoints_total").Value() == 0 {
		t.Fatal("incident_changepoints_total = 0 after a flood onset")
	}
}

// TestIncidentStageDisabled holds the opt-out: with DisableIncidents
// the serve path runs bare — no analyzer, no /debug/incidents content,
// no Incident frames at drain.
func TestIncidentStageDisabled(t *testing.T) {
	w := startWorld(t, server.Config{DisableIncidents: true})
	if got := w.srv.Incidents(); got != nil {
		t.Fatalf("Incidents() = %v with the stage disabled, want nil", got)
	}
	if di := w.srv.DebugIncidents(); di.Enabled {
		t.Fatal("DebugIncidents().Enabled with the stage disabled")
	}
	trace := ipdsclient.Tamper(ipdsclient.Capture(w.art, nil), 5)
	c, err := ipdsclient.Dial(ipdsclient.Config{Addr: w.addr, Image: w.hash, Program: "noinc"})
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
	if len(c.Alarms()) == 0 {
		t.Fatal("tampered trace raised no alarms; test is vacuous")
	}
	if got := c.Incidents(); len(got) != 0 {
		t.Fatalf("client received %d incident frames from a stage-disabled daemon", len(got))
	}
}

// waitAcked polls until the client has had want events acknowledged.
func waitAcked(t *testing.T, c *ipdsclient.Client, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if c.Acked() >= want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("acked %d of %d events", c.Acked(), want)
}

// TestIncidentDebugSessionUptimeAndRate holds the /debug/sessions
// satellite: live rows report uptime and a windowed alarm rate.
func TestIncidentDebugSessionUptimeAndRate(t *testing.T) {
	w := startWorld(t, server.Config{})
	trace := ipdsclient.Tamper(ipdsclient.Capture(w.art, nil), 5)
	c, err := ipdsclient.Dial(ipdsclient.Config{
		Addr: w.addr, Image: w.hash, Program: "ratey", Batch: 8, DiscardCtx: true,
	})
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
	waitAcked(t, c, uint64(len(trace)))
	// Age the session past one rate window, then land more alarms so the
	// window closes with a non-zero delta.
	time.Sleep(1100 * time.Millisecond)
	if err := c.Send(trace...); err != nil {
		t.Fatalf("send: %v", err)
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	waitAcked(t, c, uint64(2*len(trace)))

	d := w.srv.Debug()
	if len(d.Sessions) != 1 {
		t.Fatalf("got %d live sessions, want 1", len(d.Sessions))
	}
	s0 := d.Sessions[0]
	if s0.UptimeS < 1.0 {
		t.Fatalf("uptime_s = %.3f after sleeping past 1s", s0.UptimeS)
	}
	if s0.AlarmRate <= 0 {
		t.Fatalf("alarm_rate_per_s = %v with alarms flowing", s0.AlarmRate)
	}
	if s0.Alarms == 0 {
		t.Fatal("session row reports zero alarms; rate assertion is vacuous")
	}
}
