package ipds

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/internal/tables"
	"repro/internal/vm"
	"repro/internal/wire"
	"repro/internal/workload"
)

// oracle is the independent reference for the verification kernel: a
// minimal frame stack that checks each branch against its frame's BSV
// and walks the BAT as the paper describes it — a linked list through
// fi.Entries from fi.BATHeads — never touching the baked slot records,
// the flight recorder or the spill model the Machine layers on top.
type oracle struct {
	img    *tables.Image
	strict bool
	stack  []oracleFrame
	seq    uint64
	stats  Stats // Branches, Verified, Updates, BATAccesses, StrictRejects, Alarms
	alarms []Alarm
}

type oracleFrame struct {
	fi  *tables.FuncImage // nil for a function without tables
	bsv []tables.Status
}

// branch verifies one committed branch and applies its BAT actions,
// returning the alarm (if any) and the event's cost: one BCV/BSV probe
// plus one access per BAT list node walked.
func (o *oracle) branch(pc uint64, taken bool) (*Alarm, int) {
	o.seq++
	o.stats.Branches++
	if len(o.stack) == 0 || o.stack[len(o.stack)-1].fi == nil {
		return nil, 1
	}
	f := o.stack[len(o.stack)-1]
	if o.strict && !f.fi.ValidPC(pc) {
		o.stats.StrictRejects++
		return nil, 1
	}
	slot := f.fi.Slot(pc)
	var alarm *Alarm
	if f.fi.Checked(slot) {
		o.stats.Verified++
		if st := f.bsv[slot]; st != tables.Unknown && (st == tables.Taken) != taken {
			alarm = &Alarm{Seq: o.seq, PC: pc, Func: f.fi.Name, Slot: slot, Expected: st, Taken: taken}
			o.alarms = append(o.alarms, *alarm)
			o.stats.Alarms++
		}
	}
	dir := 0
	if !taken {
		dir = 1
	}
	walked := 0
	for i := f.fi.BATHeads[slot][dir]; i >= 0; i = f.fi.Entries[i].Next {
		e := f.fi.Entries[i]
		switch e.Act {
		case core.SetTaken:
			f.bsv[e.Target] = tables.Taken
		case core.SetNotTaken:
			f.bsv[e.Target] = tables.NotTaken
		default:
			f.bsv[e.Target] = tables.Unknown
		}
		walked++
	}
	o.stats.Updates += uint64(walked)
	o.stats.BATAccesses += uint64(walked)
	return alarm, 1 + walked
}

// step feeds one event to the oracle, returning the branch's alarm and
// cost (nil, 0 for enter/leave). Entering a base without tables pushes
// an inert frame; leaving an empty stack does nothing.
func (o *oracle) step(ev wire.Event) (*Alarm, int) {
	switch ev.Kind {
	case wire.EvEnter:
		f := oracleFrame{fi: o.img.FuncAt(ev.PC)}
		if f.fi != nil {
			f.bsv = make([]tables.Status, f.fi.NumSlots)
		}
		o.stack = append(o.stack, f)
	case wire.EvLeave:
		if len(o.stack) > 0 {
			o.stack = o.stack[:len(o.stack)-1]
		}
	case wire.EvBranch:
		return o.branch(ev.PC, ev.Taken)
	}
	return nil, 0
}

// kernelStats projects the Stats fields the oracle models.
func kernelStats(s Stats) Stats {
	return Stats{
		Branches: s.Branches, Verified: s.Verified, Updates: s.Updates,
		BATAccesses: s.BATAccesses, StrictRejects: s.StrictRejects, Alarms: s.Alarms,
	}
}

// checkAgainstOracle drives trace through a fresh Machine — per event
// via OnBranch when batch is 0, else via OnBatch in batches of that
// size — and through the oracle, failing on the first divergence in
// alarms, per-event (OnBranch) or per-batch (OnBatch) cost, Stats or
// final depth.
func checkAgainstOracle(t testing.TB, img *tables.Image, cfg Config, trace []wire.Event, batch int) (alarms int) {
	t.Helper()
	m := New(img, cfg)
	o := &oracle{img: img, strict: cfg.Strict}
	var got []Alarm
	if batch == 0 {
		for i, ev := range trace {
			oa, ocost := o.step(ev)
			switch ev.Kind {
			case wire.EvBranch:
				a, cost := m.OnBranch(ev.PC, ev.Taken)
				if cost != ocost {
					t.Fatalf("event %d (%+v): OnBranch cost %d, oracle %d", i, ev, cost, ocost)
				}
				if (a == nil) != (oa == nil) || a != nil && *a != *oa {
					t.Fatalf("event %d (%+v): OnBranch alarm %v, oracle %v", i, ev, a, oa)
				}
				if a != nil {
					got = append(got, *a)
				}
			case wire.EvEnter:
				m.EnterFunc(ev.PC)
			case wire.EvLeave:
				m.LeaveFunc()
			}
		}
	} else {
		for lo := 0; lo < len(trace); lo += batch {
			hi := min(lo+batch, len(trace))
			before := m.Stats()
			got = append(got, m.OnBatch(trace[lo:hi])...)
			want := 0
			for _, ev := range trace[lo:hi] {
				_, c := o.step(ev)
				want += c
			}
			after := m.Stats()
			cost := (after.Branches - before.Branches) + (after.BATAccesses - before.BATAccesses)
			if cost != uint64(want) {
				t.Fatalf("batch [%d,%d): OnBatch cost %d, oracle %d", lo, hi, cost, want)
			}
		}
	}
	if len(got) != len(o.alarms) {
		t.Fatalf("%d alarms, oracle %d", len(got), len(o.alarms))
	}
	for i := range got {
		if got[i] != o.alarms[i] {
			t.Fatalf("alarm %d: %+v, oracle %+v", i, got[i], o.alarms[i])
		}
	}
	if s := kernelStats(m.Stats()); s != o.stats {
		t.Fatalf("stats diverge:\n machine %+v\n oracle  %+v", s, o.stats)
	}
	if m.Depth() != len(o.stack) {
		t.Fatalf("depth %d, oracle %d", m.Depth(), len(o.stack))
	}
	return len(got)
}

// captureTrace runs prog on input and records its committed event
// stream in wire form: the trace a daemon would receive.
func captureTrace(prog *ir.Program, input []string) ([]wire.Event, vm.Result) {
	var evs []wire.Event
	v := vm.New(prog, vm.DefaultConfig, input)
	v.AddHooks(vm.Hooks{
		OnCall: func(fn *ir.Func) {
			evs = append(evs, wire.Event{Kind: wire.EvEnter, PC: fn.Base})
		},
		OnRet: func(fn *ir.Func) {
			evs = append(evs, wire.Event{Kind: wire.EvLeave})
		},
		OnBranch: func(br *ir.Instr, taken bool) {
			evs = append(evs, wire.Event{Kind: wire.EvBranch, PC: br.PC, Taken: taken})
		},
	})
	res := v.Run()
	return evs, res
}

// unknownBase is an entry address no table image covers (library
// code); farPC lies outside every function.
const (
	unknownBase = 0xdead0000
	farPC       = 1<<63 + 4
)

// malform returns a copy of trace with the stream shapes a hostile or
// buggy client can send mixed in: leaves and branches on an empty
// stack before the first entry, and every stride events branches at a
// non-branch PC (pc+1, which no strict image accepts) and at a PC
// outside every function, plus an excursion into an unknown base
// (enter, branches, leave). The trace ends by
// unwinding past the bottom of the stack and branching there.
func malform(trace []wire.Event, stride int) []wire.Event {
	out := []wire.Event{
		{Kind: wire.EvLeave},
		{Kind: wire.EvBranch, PC: 0x1000, Taken: true},
		{Kind: wire.EvLeave},
	}
	for i, ev := range trace {
		out = append(out, ev)
		if i%stride != stride-1 {
			continue
		}
		if ev.Kind == wire.EvBranch {
			out = append(out,
				wire.Event{Kind: wire.EvBranch, PC: ev.PC + 1, Taken: !ev.Taken},
				wire.Event{Kind: wire.EvBranch, PC: farPC, Taken: ev.Taken})
		}
		out = append(out,
			wire.Event{Kind: wire.EvEnter, PC: unknownBase},
			wire.Event{Kind: wire.EvBranch, PC: unknownBase + 8, Taken: true},
			wire.Event{Kind: wire.EvBranch, PC: unknownBase + 12},
			wire.Event{Kind: wire.EvLeave},
		)
	}
	depth := 0
	for _, ev := range out {
		switch ev.Kind {
		case wire.EvEnter:
			depth++
		case wire.EvLeave:
			depth = max(depth-1, 0)
		}
	}
	for i := 0; i <= depth+1; i++ {
		out = append(out, wire.Event{Kind: wire.EvLeave})
	}
	return append(out, wire.Event{Kind: wire.EvBranch, PC: 0x1000})
}

// oracleModes are the kernel entry points every trace is held to: 0 is
// per-event OnBranch, the rest are OnBatch batch sizes (1 exposes the
// per-event cost through Stats; 512 is daemon-sized).
var oracleModes = []int{0, 1, 7, 512}

// TestKernelMatchesOracle holds the baked kernel — OnBranch per event
// and OnBatch at batch sizes 1, 7 and 512 — to the linked-list oracle
// on every workload server's attack-session trace, clean and tampered,
// plus malformed variants (empty-stack leaves and branches, unknown
// bases, non-branch PCs) in both default and strict mode: identical
// alarms, Stats, depth and per-event cost.
func TestKernelMatchesOracle(t *testing.T) {
	for _, w := range workload.All() {
		art, err := pipeline.Compile(w.Source, ir.DefaultOptions)
		if err != nil {
			t.Fatalf("%s: compile: %v", w.Name, err)
		}
		clean, _ := captureTrace(art.Prog, w.AttackSession)
		traces := []struct {
			name  string
			evs   []wire.Event
			alarm bool // must raise alarms, or the comparison is vacuous
		}{
			{"clean", clean, false},
			{"tamper97", tamperEvery(clean, 97), false},
			{"tamper5", tamperEvery(clean, 5), true},
			{"malformed", malform(tamperEvery(clean, 31), 53), false},
		}
		for _, tr := range traces {
			for _, strict := range []bool{false, true} {
				cfg := DefaultConfig
				cfg.Strict = strict
				for _, batch := range oracleModes {
					name := fmt.Sprintf("%s/%s/strict=%v/batch=%d", w.Name, tr.name, strict, batch)
					t.Run(name, func(t *testing.T) {
						n := checkAgainstOracle(t, art.Image, cfg, tr.evs, batch)
						if tr.name == "clean" && n != 0 {
							t.Fatalf("clean trace raised %d alarms", n)
						}
						if tr.alarm && n == 0 {
							t.Fatal("tampered trace raised no alarms; equivalence is vacuous")
						}
					})
				}
			}
		}
	}
}
