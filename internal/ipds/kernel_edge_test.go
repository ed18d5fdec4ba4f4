package ipds

import (
	"testing"

	"repro/internal/tables"
	"repro/internal/wire"
)

// TestStatusStrictInvalidPC pins the Config.Strict contract on the
// Status accessor: a PC that is not a known branch of the active
// function must read as Unknown instead of aliasing through the masked
// hash onto another branch's slot — the same ValidPC gate the
// verification kernel applies. Without the gate, a strict machine's
// diagnostics could report a confident Taken/NotTaken for a PC the
// kernel itself would reject.
func TestStatusStrictInvalidPC(t *testing.T) {
	w, evs := benchTrace(t)

	strictCfg := DefaultConfig
	strictCfg.Strict = true
	strict := New(w.img, strictCfg)
	loose := New(w.img, DefaultConfig)

	// Replay a prefix so the top activation has verified state but the
	// program has not returned from main.
	prefix := evs[:len(evs)/2]
	replayPerEvent(strict, prefix)
	replayPerEvent(loose, prefix)
	if strict.Depth() == 0 {
		t.Fatal("prefix replay left an empty stack")
	}

	act := strict.stack[len(strict.stack)-1]
	fi := act.img
	if fi == nil {
		t.Fatal("top activation has no image")
	}

	// Find a PC the function does not know that aliases onto a slot
	// holding a real (non-Unknown) status, so the two accessors can
	// disagree observably.
	var bogus uint64
	found := false
	for off := uint64(0); off < uint64(fi.NumSlots)*64; off += 4 {
		pc := fi.Base + off
		if !fi.ValidPC(pc) && act.bsv[fi.Slot(pc)] != tables.Unknown {
			bogus, found = pc, true
			break
		}
	}
	if !found {
		t.Skip("no aliasing invalid PC over a non-Unknown slot in this image")
	}

	if got := strict.Status(bogus); got != tables.Unknown {
		t.Errorf("strict Status(%#x) = %v, want Unknown for an invalid PC", bogus, got)
	}
	// The non-strict machine keeps the paper's tagless-table behaviour:
	// the PC hashes onto a slot and that slot's status is returned.
	if got := loose.Status(bogus); got == tables.Unknown {
		t.Errorf("non-strict Status(%#x) = Unknown, want the aliased slot's status", bogus)
	}

	// Valid PCs still read through under strict.
	valid := fi.BranchPCs[0]
	if got, want := strict.Status(valid), act.bsv[fi.Slot(valid)]; got != want {
		t.Errorf("strict Status(%#x) = %v, want %v for a known branch PC", valid, got, want)
	}
}

// TestLeaveFuncSpilledTopFrame exercises the defensive branch in
// LeaveFunc for a popped frame that was itself spilled off-chip. The
// fill-on-pop policy keeps the top frame resident, so the state is
// reached here by hand: mark every frame spilled (resident == depth,
// on-chip counters zeroed, as spillToFit leaves them) and pop. The
// frame's bits must not be subtracted a second time and the resident
// watermark must follow the shrinking stack.
func TestLeaveFuncSpilledTopFrame(t *testing.T) {
	w, _ := benchTrace(t)
	m := New(w.img, DefaultConfig)
	mainFn := w.img.Funcs[0]
	m.EnterFunc(mainFn.Base)
	m.EnterFunc(mainFn.Base)

	// Simulate both frames spilled: first on-chip frame index == depth,
	// nothing counted on-chip (spillToFit subtracts each victim's bits
	// as it goes).
	m.resident = len(m.stack)
	m.bsvBits, m.bcvBits, m.batBits = 0, 0, 0
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("forced spill state is not self-consistent: %v", err)
	}

	popsBefore := m.Stats().Pops
	m.LeaveFunc()

	if got := m.Stats().Pops; got != popsBefore+1 {
		t.Errorf("Pops = %d, want %d", got, popsBefore+1)
	}
	if m.resident != len(m.stack) {
		t.Errorf("resident = %d after popping a spilled frame, want %d", m.resident, len(m.stack))
	}
	if m.bsvBits != 0 || m.bcvBits != 0 || m.batBits != 0 {
		t.Errorf("on-chip bits (%d,%d,%d) changed: spilled frame double-subtracted",
			m.bsvBits, m.bcvBits, m.batBits)
	}
	if got := m.Stats().FillEvents; got != 0 {
		t.Errorf("FillEvents = %d, want 0 (popped frame was off-chip)", got)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Errorf("invariants broken after spilled-frame pop: %v", err)
	}

	// Popping the remaining spilled frame walks the same branch down to
	// an empty stack.
	m.LeaveFunc()
	if m.Depth() != 0 || m.resident != 0 {
		t.Errorf("depth %d resident %d after final pop, want 0,0", m.Depth(), m.resident)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Errorf("invariants broken on empty stack: %v", err)
	}
}

// TestOnBatchSpillBoundaryMidBatch holds the batched kernel to the
// per-event one across the on-chip/off-chip boundary: a tiny BSV
// budget plus deep nesting forces spills on the enter ramp and fills
// on the leave ramp inside a single batch, with verified branch
// traffic in between. Alarms, Stats and depth must match the per-event
// replay exactly, clean and tampered.
func TestOnBatchSpillBoundaryMidBatch(t *testing.T) {
	w, branchy := benchTrace(t)
	mainFn := w.img.Funcs[0]

	// Budget roughly two frames' BSV bits so the nesting ramp below
	// crosses the boundary mid-batch.
	cfg := DefaultConfig
	cfg.BSVStackBits = 4 * mainFn.NumSlots // 2 bits/slot -> two frames
	const nest = 6

	var evs []wire.Event
	for k := 0; k < nest; k++ {
		evs = append(evs, wire.Event{Kind: wire.EvEnter, PC: mainFn.Base})
	}
	evs = append(evs, branchy...)
	for k := 0; k < nest; k++ {
		evs = append(evs, wire.Event{Kind: wire.EvLeave})
	}

	bent := make([]wire.Event, len(evs))
	copy(bent, evs)
	for i := range bent {
		if bent[i].Kind == wire.EvBranch && i%13 == 0 {
			bent[i].Taken = !bent[i].Taken
		}
	}

	for name, trace := range map[string][]wire.Event{"clean": evs, "tampered": bent} {
		ref := New(w.img, cfg)
		ra := replayCollect(ref, trace)
		got := New(w.img, cfg)
		ga := got.OnBatch(trace)

		if ref.Stats().SpillEvents == 0 || ref.Stats().FillEvents == 0 {
			t.Fatalf("%s: trace did not cross the spill boundary (spills %d fills %d); test is vacuous",
				name, ref.Stats().SpillEvents, ref.Stats().FillEvents)
		}
		if ref.Stats() != got.Stats() {
			t.Errorf("%s: stats diverge across the spill boundary:\n per-event %+v\n batched   %+v",
				name, ref.Stats(), got.Stats())
		}
		if len(ra) != len(ga) {
			t.Fatalf("%s: alarm count %d (batched) != %d (per-event)", name, len(ga), len(ra))
		}
		for i := range ra {
			if ra[i] != ga[i] {
				t.Errorf("%s: alarm %d diverges: %+v vs %+v", name, i, ga[i], ra[i])
			}
		}
		if ref.Depth() != got.Depth() {
			t.Errorf("%s: depth %d != %d", name, got.Depth(), ref.Depth())
		}
		if err := got.CheckInvariants(); err != nil {
			t.Errorf("%s: batched machine invariants: %v", name, err)
		}
	}
}

// replayCollect is replayPerEvent returning the alarms OnBranch raised.
func replayCollect(m *Machine, evs []wire.Event) []Alarm {
	var out []Alarm
	for i, ev := range evs {
		if ev.Kind != wire.EvBranch {
			replayPerEvent(m, evs[i:i+1])
		} else if a, _ := m.OnBranch(ev.PC, ev.Taken); a != nil {
			out = append(out, *a)
		}
	}
	return out
}
