package incident

import (
	"math/rand"
	"reflect"
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

// feedSlabs feeds items to a as slabs of at most 1+rng.Intn(32)
// alarms, cut before every capture and, when perSession is set, at
// every session change too — as the daemon's verifiers cut them.
// Without perSession one slab mixes sessions.
func feedSlabs(a *Analyzer, items []streamItem, rng *rand.Rand, perSession bool) {
	var slab []AlarmEvent
	limit := 1 + rng.Intn(32)
	flush := func() {
		a.ObserveBatch(slab)
		slab, limit = slab[:0], 1+rng.Intn(32)
	}
	for _, it := range items {
		if it.ctx != nil {
			flush()
			a.ObserveContext(it.ctx)
			continue
		}
		if perSession && len(slab) > 0 && slab[0].Session != it.ev.Session {
			flush()
		}
		if slab = append(slab, it.ev); len(slab) == limit {
			flush()
		}
	}
	flush()
}

// TestObserveBatchMatchesObserve feeds the same random multi-session
// stream to three analyzers: one alarm at a time through Observe, and
// through ObserveBatch as one-session slabs and as mixed-session ones.
// Stats, signals, series, dedup filters, retained contexts and the
// ranked incidents must all be identical.
func TestObserveBatchMatchesObserve(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		items := randStream(rng, 1+rng.Intn(4), 6000)
		cfg := Config{MaxSignals: 9, BloomCells: 256 << rng.Intn(2)}

		ref := NewAnalyzer(cfg)
		for _, it := range items {
			if it.ctx != nil {
				ref.ObserveContext(it.ctx)
			} else {
				ref.Observe(it.ev)
			}
		}
		st := ref.Stats()
		if st.Overflow == 0 || st.Folded == 0 {
			t.Fatalf("seed %d: stream exercised no overflow or no folds: %+v", seed, st)
		}
		want, wantState := ref.Incidents(), stateOf(ref)

		for _, perSession := range []bool{true, false} {
			got := NewAnalyzer(cfg)
			feedSlabs(got, items, rng, perSession)
			if !reflect.DeepEqual(wantState, stateOf(got)) {
				t.Fatalf("seed %d (per-session slabs %v): analyzer state diverges from Observe's", seed, perSession)
			}
			if have := got.Stats(); have != st {
				t.Fatalf("seed %d (per-session slabs %v): stats %+v, want %+v", seed, perSession, have, st)
			}
			if have := got.Incidents(); !reflect.DeepEqual(want, have) {
				t.Fatalf("seed %d (per-session slabs %v): incidents diverge:\nObserve:      %+v\nObserveBatch: %+v", seed, perSession, want, have)
			}
		}
	}
}

// TestObserveBatchEmptyAndSteadyState: an empty slab is a no-op, and a
// warm session's slab allocates nothing.
func TestObserveBatchEmptyAndSteadyState(t *testing.T) {
	a := NewAnalyzer(Config{})
	a.ObserveBatch(nil)
	if st := a.Stats(); st != (Stats{}) {
		t.Fatalf("empty slab changed stats: %+v", st)
	}
	slab := make([]AlarmEvent, 64)
	seq := uint64(0)
	fill := func() {
		for i := range slab {
			seq += 3
			slab[i] = AlarmEvent{Session: 1, Seq: seq, PC: 0x99 + uint64(i%2), Func: "act"}
		}
		a.ObserveBatch(slab)
	}
	for i := 0; i < 64; i++ {
		fill()
	}
	if n := testing.AllocsPerRun(200, fill); n != 0 {
		t.Fatalf("ObserveBatch allocates %.1f per slab in steady state, want 0", n)
	}
}
