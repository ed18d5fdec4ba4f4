package incident

import (
	"math/rand"
	"reflect"
	"regexp"
	"runtime"
	"testing"

	"repro/internal/ipds"
)

// streamItem is one entry of an analyzer feed: an alarm, or a forensic
// capture (ctx != nil).
type streamItem struct {
	ev  AlarmEvent
	ctx *ipds.AlarmContext
}

// randStream interleaves random per-session alarm streams — Seq order
// within a session, stretches of dense storm and sparse drip, a dozen
// (func, branch) signals against a smaller MaxSignals — with forensic
// captures that follow their alarms, and drops one item in twenty, as
// a full queue drops alarms and captures.
func randStream(rng *rand.Rand, sessions, n int) []streamItem {
	funcs := []string{"lib", "act", "parse"}
	seqs := make([]uint64, sessions)
	dense := make([]bool, sessions)
	var out []streamItem
	for len(out) < n {
		s := rng.Intn(sessions)
		if rng.Intn(50) == 0 {
			dense[s] = !dense[s]
		}
		if dense[s] {
			seqs[s] += 1 + uint64(rng.Intn(8))
		} else {
			seqs[s] += 1 + uint64(rng.Intn(3000))
		}
		ev := AlarmEvent{
			Session: uint64(100 + s),
			Seq:     seqs[s],
			PC:      0x40 * uint64(1+rng.Intn(4)),
			Func:    funcs[rng.Intn(len(funcs))],
			Taken:   rng.Intn(2) == 0,
		}
		if rng.Intn(20) != 0 {
			out = append(out, streamItem{ev: ev})
		}
		if rng.Intn(6) == 0 && rng.Intn(20) != 0 {
			out = append(out, streamItem{ctx: &ipds.AlarmContext{
				Alarm:    ipds.Alarm{Seq: ev.Seq, PC: ev.PC, Func: ev.Func, Taken: ev.Taken},
				Recorded: ev.Seq + 7,
				Recent:   []ipds.RecEvent{{Seq: ev.Seq, PC: ev.PC}},
				Stack:    []ipds.StackEntry{{Base: 0x10, Func: "main"}, {Base: ev.PC &^ 0xf, Func: ev.Func}},
			}})
		}
	}
	return out
}

// analyzerState is an analyzer's complete layer 1–2 state keyed by
// value, so two analyzers' states compare with reflect.DeepEqual.
type analyzerState struct {
	Signals  map[sigKey]signal
	Series   map[uint64]map[sigKey]series
	Bloom    map[uint64]stableBloom
	Alarms   uint64
	Folded   uint64
	Overflow uint64
}

func stateOf(a *Analyzer) analyzerState {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := analyzerState{
		Signals:  map[sigKey]signal{},
		Series:   map[uint64]map[sigKey]series{},
		Bloom:    map[uint64]stableBloom{},
		Alarms:   a.alarms,
		Folded:   a.folded,
		Overflow: a.overflow,
	}
	for k, s := range a.signals {
		st.Signals[k] = *s
	}
	for id, ss := range a.sessions {
		m := map[sigKey]series{}
		for s, sr := range ss.series {
			m[sigKey{pc: s.pc, fn: s.fn}] = *sr
		}
		st.Series[id] = m
		st.Bloom[id] = ss.bloom
	}
	return st
}

// recordFeed folds items the way the daemon's verifiers do — a Folder
// of random capacity, flushed when full, before every capture, at
// random pass ends — and feeds the records to a. When regrouped is
// non-nil it is fed the same alarms one by one, in record order: each
// record's alarms together, where the record stands.
func recordFeed(a, regrouped *Analyzer, items []streamItem, rng *rand.Rand) {
	f := a.NewFolder(1 + rng.Intn(48))
	var groups [][]AlarmEvent
	flush := func() {
		a.ObserveRecords(f.Records())
		for _, g := range groups {
			for _, ev := range g {
				regrouped.Observe(ev)
			}
		}
		f.Reset()
		groups = groups[:0]
	}
	for _, it := range items {
		if it.ctx != nil {
			flush()
			a.ObserveContext(it.ctx)
			if regrouped != nil {
				regrouped.ObserveContext(it.ctx)
			}
			continue
		}
		ev := it.ev
		full := f.Add(ev.Session, ev.Seq, ev.PC, ev.Func)
		if regrouped != nil {
			recs := f.Records()
			for i := range recs {
				if recs[i].Session == ev.Session && recs[i].LastSeq == ev.Seq {
					if i == len(groups) {
						groups = append(groups, nil)
					}
					groups[i] = append(groups[i], ev)
				}
			}
		}
		if full || rng.Intn(40) == 0 {
			flush()
		}
	}
	flush()
}

// TestObserveRecordsReplaysAlarms: a record of n alarms leaves the
// analyzer exactly as its n alarms fed one by one, dedup filters
// included. Random multi-session streams are folded into records and
// fed as records to one analyzer and, alarm by alarm in record order,
// to another: state, stats and incidents must be identical.
func TestObserveRecordsReplaysAlarms(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		items := randStream(rng, 1+rng.Intn(4), 6000)
		cfg := Config{MaxSignals: 9, BloomCells: 2 << rng.Intn(9)}
		got, want := NewAnalyzer(cfg), NewAnalyzer(cfg)
		recordFeed(got, want, items, rng)
		if st := want.Stats(); st.Overflow == 0 || st.Folded == 0 {
			t.Fatalf("seed %d: stream exercised no overflow or no folds: %+v", seed, st)
		}
		if !reflect.DeepEqual(stateOf(want), stateOf(got)) {
			t.Fatalf("seed %d (%d cells): record feed's state diverges from its alarms'", seed, cfg.BloomCells)
		}
		if g, w := got.Stats(), want.Stats(); g != w {
			t.Fatalf("seed %d: stats %+v, want %+v", seed, g, w)
		}
		if g, w := got.Incidents(), want.Incidents(); !reflect.DeepEqual(g, w) {
			t.Fatalf("seed %d: incidents diverge:\nrecords: %+v\nalarms:  %+v", seed, g, w)
		}
	}
}

// TestObserveRecordsEmptyAndSteadyState: an empty run is a no-op, and
// a warm session's run of records allocates nothing.
func TestObserveRecordsEmptyAndSteadyState(t *testing.T) {
	a := NewAnalyzer(Config{})
	a.ObserveRecords(nil)
	if st := a.Stats(); st != (Stats{}) {
		t.Fatalf("empty run changed stats: %+v", st)
	}
	recs := make([]Record, 64)
	seq := uint64(0)
	fill := func() {
		for i := range recs {
			seq += 300
			recs[i] = Record{Session: 1, PC: 0x99 + uint64(i%2), Func: "act", FirstSeq: seq, LastSeq: seq + 9, Count: 4}
		}
		a.ObserveRecords(recs)
	}
	for i := 0; i < 64; i++ {
		fill()
	}
	if n := testing.AllocsPerRun(200, fill); n != 0 {
		t.Fatalf("ObserveRecords allocates %.1f per run in steady state, want 0", n)
	}
}

// foldCounts matches the dedup counts in an incident's first evidence
// line.
var foldCounts = regexp.MustCompile(`\(\d+ folded into \d+ active bucket\(s\)\)`)

// dedupBlind clears what depends on the order the dedup filter met a
// session's tuples in: fold and tuple counts, and the filters' cells.
func dedupBlind(st analyzerState, incs []Incident, stats Stats) (analyzerState, []Incident, Stats) {
	for k, s := range st.Signals {
		s.folded, s.tuples = 0, 0
		st.Signals[k] = s
	}
	for id, b := range st.Bloom {
		b.cells = nil
		st.Bloom[id] = b
	}
	for i := range incs {
		incs[i].Folded = 0
		incs[i].Evidence[0] = foldCounts.ReplaceAllString(incs[i].Evidence[0], "")
	}
	stats.Folded = 0
	return st, incs, stats
}

// TestObserveRecordsMatchesObserve: the record feed against the alarm
// feed it replaces. A record folds alarms of its signal out of their
// interleaving with other signals', so only the dedup filter, which
// sees each session's tuples in a different order, may differ: every
// alarm count, sequence range, series, change-point, cluster, lead,
// score and rank must be identical, and the fold counts stay close.
func TestObserveRecordsMatchesObserve(t *testing.T) {
	var differ, total uint64
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		items := randStream(rng, 1+rng.Intn(4), 6000)
		cfg := Config{MaxSignals: 9, BloomCells: 256 << rng.Intn(6)}
		ref := NewAnalyzer(cfg)
		for _, it := range items {
			if it.ctx != nil {
				ref.ObserveContext(it.ctx)
			} else {
				ref.Observe(it.ev)
			}
		}
		got := NewAnalyzer(cfg)
		recordFeed(got, nil, items, rng)

		ws, gs := ref.Stats(), got.Stats()
		if ws.Folded > gs.Folded {
			differ += ws.Folded - gs.Folded
		} else {
			differ += gs.Folded - ws.Folded
		}
		total += ws.Alarms
		wantState, wantIncs, wantStats := dedupBlind(stateOf(ref), ref.Incidents(), ws)
		gotState, gotIncs, gotStats := dedupBlind(stateOf(got), got.Incidents(), gs)
		if !reflect.DeepEqual(wantState, gotState) {
			t.Fatalf("seed %d: state beyond the dedup filter diverges from the alarm feed's", seed)
		}
		if gotStats != wantStats {
			t.Fatalf("seed %d: stats %+v, want %+v", seed, gs, ws)
		}
		if !reflect.DeepEqual(wantIncs, gotIncs) {
			t.Fatalf("seed %d: incidents diverge beyond fold counts:\nrecords: %+v\nalarms:  %+v", seed, gotIncs, wantIncs)
		}
	}
	t.Logf("fold counts differ by %d over %d alarms", differ, total)
	if differ*100 > total {
		t.Fatalf("fold counts differ by %d over %d alarms, more than 1%%", differ, total)
	}
}

// TestAddRunMatchesAddFresh: addRun(h, n) is n addFresh(h) calls, on
// filters of every size down to two cells and runs longer than the
// filter.
func TestAddRunMatchesAddFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, cells := range []int{2, 4, 8, 64, 1024} {
		var run, one stableBloom
		run.init(cells)
		one.init(cells)
		for i := 0; i < 2000; i++ {
			h := tupleHash("f", uint64(rng.Intn(40)), uint64(rng.Intn(8)))
			n := uint64(1 + rng.Intn(4))
			if rng.Intn(10) == 0 {
				n += uint64(rng.Intn(4 * cells))
			}
			want := one.addFresh(h)
			for k := uint64(1); k < n; k++ {
				if one.addFresh(h) {
					t.Fatalf("%d cells: a repeat insert came back fresh", cells)
				}
			}
			if got := run.addRun(h, n); got != want || !reflect.DeepEqual(run, one) {
				t.Fatalf("%d cells, run %d: addRun = %v, filter %v; addFresh = %v, filter %v", cells, n, got, run, want, one)
			}
		}
	}
}

// TestFolderRecords: a folder keeps one record per (session, signal,
// bucket) run, in the order their first alarms came, reports full at
// its capacity, and allocates nothing until its first alarm.
func TestFolderRecords(t *testing.T) {
	a := NewAnalyzer(Config{BucketEvents: 100})
	f := a.NewFolder(4)
	if f.Records() != nil {
		t.Fatal("an empty folder holds storage")
	}
	adds := []struct {
		sess, seq, pc uint64
		full          bool
	}{
		{1, 10, 0xa, false}, {1, 11, 0xb, false}, {1, 12, 0xa, false}, // bucket 0: a×2, b
		{1, 150, 0xa, false}, {1, 160, 0xa, false}, // bucket 1: a×2
		{2, 170, 0xa, true}, // another session: a record of its own, and the folder is full
	}
	for _, ad := range adds {
		if full := f.Add(ad.sess, ad.seq, ad.pc, "fn"); full != ad.full {
			t.Fatalf("Add(%d, %d, %#x) full = %v, want %v", ad.sess, ad.seq, ad.pc, full, ad.full)
		}
	}
	want := []Record{
		{Session: 1, PC: 0xa, Func: "fn", FirstSeq: 10, LastSeq: 12, Count: 2},
		{Session: 1, PC: 0xb, Func: "fn", FirstSeq: 11, LastSeq: 11, Count: 1},
		{Session: 1, PC: 0xa, Func: "fn", FirstSeq: 150, LastSeq: 160, Count: 2},
		{Session: 2, PC: 0xa, Func: "fn", FirstSeq: 170, LastSeq: 170, Count: 1},
	}
	if got := f.Records(); !reflect.DeepEqual(got, want) {
		t.Fatalf("records %+v, want %+v", got, want)
	}
	f.Reset()
	if len(f.Records()) != 0 || cap(f.Records()) != 4 {
		t.Fatalf("reset left %d records in %d slots", len(f.Records()), cap(f.Records()))
	}
	// After a reset, the same (session, bucket) opens a new record.
	f.Add(2, 171, 0xa, "fn")
	if got := f.Records(); len(got) != 1 || got[0].FirstSeq != 171 {
		t.Fatalf("records after reset %+v", got)
	}
}

// liveHeap is the heap in use after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestEndSessionFreesFilter: 10,000 sessions each alarm and end. A
// session's end frees its 8 KiB dedup filter, so the analyzer keeps
// well under 1 KiB a session, and the ranked incidents and stats equal
// those of an analyzer that never frees one.
func TestEndSessionFreesFilter(t *testing.T) {
	const sessions = 10_000
	feed := func(a *Analyzer, end bool) {
		for s := uint64(1); s <= sessions; s++ {
			seq := 1000 * (s % 7)
			recs := []Record{
				{Session: s, PC: 0x40, Func: "loop", FirstSeq: seq + 1, LastSeq: seq + 9, Count: 5},
				{Session: s, PC: 0x80 + 0x40*(s%3), Func: "act", FirstSeq: seq + 600, LastSeq: seq + 600, Count: 1},
			}
			a.ObserveRecords(recs)
			if end {
				a.EndSession(s)
			}
		}
	}
	keep := NewAnalyzer(Config{})
	feed(keep, false)
	want, wantStats := keep.Incidents(), keep.Stats()
	keep = nil

	base := liveHeap()
	a := NewAnalyzer(Config{})
	feed(a, true)
	grown := int64(liveHeap()) - int64(base)
	t.Logf("%d ended sessions hold %d bytes, %d a session", sessions, grown, grown/sessions)
	if grown > sessions*1024 {
		t.Fatalf("%d ended sessions hold %d bytes of live heap, want < 1 KiB a session", sessions, grown)
	}
	if a.filters != 0 {
		t.Fatalf("%d dedup filters live after every session ended", a.filters)
	}
	if got := a.Incidents(); !reflect.DeepEqual(got, want) {
		t.Fatalf("incidents diverge from the analyzer that never frees:\ngot:  %+v\nwant: %+v", got, want)
	}
	if got := a.Stats(); got != wantStats {
		t.Fatalf("stats %+v, want %+v", got, wantStats)
	}
	runtime.KeepAlive(a)
}
