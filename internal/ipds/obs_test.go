package ipds

import (
	"io"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/tables"
	"repro/internal/vm"
)

// guardSrc is a tiny program with a checked store->load correlation:
// the store to flag on the taken side of the first branch forces the
// second branch taken.
const guardSrc = `
int flag;
int main() {
    int x;
    x = read_int();
    flag = 0;
    if (x > 0) { flag = 1; }
    if (flag > 0) { print_int(1); } else { print_int(0); }
    return 0;
}
`

// --- Event stream -----------------------------------------------------

func TestEventSinkReceivesLifecycle(t *testing.T) {
	w := buildWorld(t, guardSrc)
	v := vm.New(w.prog, vm.DefaultConfig, []string{"5"})
	m := New(w.img, DefaultConfig)
	counts := map[EventKind]int{}
	m.SetEventSink(FuncSink(func(e Event) { counts[e.Kind]++ }))
	Attach(v, m, nil)
	if res := v.Run(); res.Status != vm.Exited {
		t.Fatalf("run: %+v", res)
	}
	if counts[EvEnter] == 0 || counts[EvLeave] == 0 {
		t.Fatalf("missing enter/leave events: %v", counts)
	}
}

func TestEventSinkSpillFill(t *testing.T) {
	img, bases := syntheticImage(64, 4096)
	cfg := Config{BSVStackBits: 3 * 64, BCVStackBits: 1 << 20, BATStackBits: 1 << 30}
	m := New(img, cfg)
	var spills, fills, spillBits, fillBits int
	m.SetEventSink(FuncSink(func(e Event) {
		switch e.Kind {
		case EvSpill:
			spills++
			spillBits += e.Bits
		case EvFill:
			fills++
			fillBits += e.Bits
		}
	}))
	for _, b := range bases[:8] {
		m.EnterFunc(b)
	}
	for i := 0; i < 8; i++ {
		m.LeaveFunc()
	}
	if spills == 0 || fills == 0 {
		t.Fatalf("no spill/fill traffic observed (spills=%d fills=%d)", spills, fills)
	}
	if spillBits != fillBits {
		t.Fatalf("event bits disagree: spilled %d, filled %d", spillBits, fillBits)
	}
	st := m.Stats()
	if uint64(spills) != st.SpillEvents || uint64(fills) != st.FillEvents {
		t.Fatalf("event counts (%d,%d) != stats (%d,%d)", spills, fills, st.SpillEvents, st.FillEvents)
	}
}

// --- Strict slot validation -------------------------------------------

func TestStrictModeRejectsNonBranchPC(t *testing.T) {
	w := buildWorld(t, guardSrc)
	main := w.img.FuncByName("main")
	if main == nil {
		t.Fatal("no main image")
	}
	if len(main.BranchPCs) == 0 {
		t.Fatal("image has no branch PC metadata")
	}
	// A PC inside main that is not one of its branches.
	bogus := main.Base + 4
	for isBranchPC(main, bogus) {
		bogus += 4
	}

	cfg := DefaultConfig
	cfg.Strict = true
	reg := obs.NewRegistry()
	m := New(w.img, cfg)
	m.Instrument(reg)
	m.EnterFunc(main.Base)

	if a, cost := m.OnBranch(bogus, true); a != nil || cost != 1 {
		t.Fatalf("strict machine processed a non-branch PC (alarm=%v cost=%d)", a, cost)
	}
	st := m.Stats()
	if st.StrictRejects != 1 {
		t.Fatalf("StrictRejects = %d, want 1", st.StrictRejects)
	}
	if st.Verified != 0 || st.BATAccesses != 0 || st.Updates != 0 {
		t.Fatalf("rejected PC still touched tables: %+v", st)
	}
	if got := reg.Counter("ipds_strict_rejects_total").Value(); got != 1 {
		t.Fatalf("ipds_strict_rejects_total = %d, want 1", got)
	}

	// Real branch PCs still verify normally.
	if _, cost := m.OnBranch(main.BranchPCs[0], true); cost < 1 {
		t.Fatalf("strict machine refused a real branch")
	}
	if m.Stats().StrictRejects != 1 {
		t.Fatalf("real branch counted as reject")
	}

	// The default (lax) machine aliases the same PC onto some slot,
	// exactly the hazard strict mode closes.
	lax := New(w.img, DefaultConfig)
	lax.EnterFunc(main.Base)
	lax.OnBranch(bogus, true)
	if lax.Stats().StrictRejects != 0 {
		t.Fatal("lax machine rejected")
	}
}

func isBranchPC(fi *tables.FuncImage, pc uint64) bool {
	for _, p := range fi.BranchPCs {
		if p == pc {
			return true
		}
	}
	return false
}

// --- Invariants -------------------------------------------------------

// syntheticImage builds an image of n same-shaped functions whose table
// frames are big enough to force spill traffic against small buffers.
func syntheticImage(n, frameBits int) (*tables.Image, []uint64) {
	im := &tables.Image{}
	var bases []uint64
	for i := 0; i < n; i++ {
		base := uint64(0x1000 * (i + 1))
		fi := &tables.FuncImage{
			Name:     "f",
			Base:     base,
			NumSlots: 32,
			BCV:      make([]uint64, 1),
			BATHeads: make([][2]int32, 32),
			BSVBits:  frameBits / 2,
			BCVBits:  frameBits / 4,
			BATBits:  frameBits,
		}
		for j := range fi.BATHeads {
			fi.BATHeads[j] = [2]int32{-1, -1}
		}
		im.Funcs = append(im.Funcs, fi)
		bases = append(bases, base)
	}
	im.Index()
	return im, bases
}

func TestCheckInvariantsHoldsThroughRandomWalk(t *testing.T) {
	img, bases := syntheticImage(64, 1024)
	// Buffers sized from Table 1's ratios, small enough to spill under
	// deep recursion over these synthetic frames.
	cfg := Config{BSVStackBits: 2 * 1024, BCVStackBits: 1 * 1024, BATStackBits: 4 * 1024}
	rng := rand.New(rand.NewSource(7))
	m := New(img, cfg)
	depth := 0
	for step := 0; step < 20000; step++ {
		if depth == 0 || rng.Intn(3) != 0 {
			m.EnterFunc(bases[rng.Intn(len(bases))])
			depth++
		} else {
			m.LeaveFunc()
			depth--
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("step %d (depth %d): %v", step, depth, err)
		}
		if m.Resident() > m.Depth() {
			t.Fatalf("resident %d > depth %d", m.Resident(), m.Depth())
		}
	}
}

// TestLeaveFuncSpilledTopRecovery drives the LeaveFunc branch that
// handles popping a frame at or below the resident floor ("cannot
// happen with the fill-on-pop policy"): the machine must clamp the
// floor and keep every invariant intact rather than corrupting the bit
// accounting.
func TestLeaveFuncSpilledTopRecovery(t *testing.T) {
	img, bases := syntheticImage(8, 256)
	m := New(img, Config{BSVStackBits: 1 << 20, BCVStackBits: 1 << 20, BATStackBits: 1 << 20})
	for _, b := range bases[:4] {
		m.EnterFunc(b)
	}
	// Force the impossible state: pretend every frame including the top
	// was spilled.
	m.resident = len(m.stack)
	m.bsvBits, m.bcvBits, m.batBits = 0, 0, 0
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("setup state should satisfy invariants: %v", err)
	}

	m.LeaveFunc() // pops a spilled frame -> recovery branch

	if m.resident != len(m.stack) {
		t.Fatalf("resident = %d, want clamped to %d", m.resident, len(m.stack))
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("recovery left broken bookkeeping: %v", err)
	}
	// Subsequent operation stays sane.
	m.EnterFunc(bases[0])
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// --- Spill/fill accounting property (Table 1 buffer sizes) ------------

func TestSpillFillBalancedAfterUnwind(t *testing.T) {
	img, bases := syntheticImage(128, 4096)
	cfg := DefaultConfig // the Table 1 2K/1K/32K-bit buffers
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		m := New(img, cfg)
		depth := 0
		minResident := 0
		// Deep recursion with random partial unwinds.
		for step := 0; step < 2000; step++ {
			if depth == 0 || rng.Intn(5) < 3 {
				m.EnterFunc(bases[rng.Intn(len(bases))])
				depth++
			} else {
				m.LeaveFunc()
				depth--
			}
			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			// Resident-floor monotonicity: it may only move down via
			// fill-on-pop, never below zero, never above the depth.
			if r := m.Resident(); r < 0 || r > depth {
				t.Fatalf("trial %d: resident %d out of [0,%d]", trial, r, depth)
			}
			if m.Resident() < minResident {
				minResident = m.Resident()
			}
		}
		// Full unwind: every spilled bit must have been filled back.
		for depth > 0 {
			m.LeaveFunc()
			depth--
		}
		st := m.Stats()
		if st.SpillBits != st.FillBits {
			t.Fatalf("trial %d: SpillBits %d != FillBits %d after unwind",
				trial, st.SpillBits, st.FillBits)
		}
		if st.SpillEvents != st.FillEvents {
			t.Fatalf("trial %d: SpillEvents %d != FillEvents %d after unwind",
				trial, st.SpillEvents, st.FillEvents)
		}
		if st.SpillEvents == 0 {
			t.Fatalf("trial %d: recursion never spilled; buffers too large for the test", trial)
		}
		if m.Resident() != 0 || m.Depth() != 0 {
			t.Fatalf("trial %d: unwind left depth=%d resident=%d", trial, m.Depth(), m.Resident())
		}
	}
}

// --- Instrumented run vs Stats ----------------------------------------

func TestInstrumentMatchesStats(t *testing.T) {
	w := buildWorld(t, guardSrc)
	reg := obs.NewRegistry()
	v := vm.New(w.prog, vm.DefaultConfig, []string{"5"})
	m := New(w.img, DefaultConfig)
	m.Instrument(reg, "workload", "guard")
	Attach(v, m, nil)
	if res := v.Run(); res.Status != vm.Exited {
		t.Fatalf("run: %+v", res)
	}
	st := m.Stats()
	n := func(base string) string { return obs.Name(base, "workload", "guard") }
	checks := []struct {
		name string
		got  uint64
		want uint64
	}{
		{n("ipds_branches_total"), reg.Counter(n("ipds_branches_total")).Value(), st.Branches},
		{n("ipds_verified_total"), reg.Counter(n("ipds_verified_total")).Value(), st.Verified},
		{n("ipds_updates_total"), reg.Counter(n("ipds_updates_total")).Value(), st.Updates},
		{n("ipds_bat_accesses_total"), reg.Counter(n("ipds_bat_accesses_total")).Value(), st.BATAccesses},
		{n("ipds_pushes_total"), reg.Counter(n("ipds_pushes_total")).Value(), st.Pushes},
		{n("ipds_pops_total"), reg.Counter(n("ipds_pops_total")).Value(), st.Pops},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %d, stats say %d", c.name, c.got, c.want)
		}
	}
	if st.Branches == 0 {
		t.Fatal("run processed no branches")
	}
	if h := reg.Histogram(n("ipds_bat_walk_len")); h.Count() != st.Branches-st.StrictRejects {
		// every non-rejected in-frame branch observes one walk length
		t.Logf("walk histogram count %d vs branches %d (unprotected frames skip)", h.Count(), st.Branches)
	}
}

// TestInstrumentedRunIsRaceFreeUnderScrape runs a guarded execution
// while another goroutine scrapes the registry, mirroring a live
// /metrics endpoint during a workload (go test -race is the assertion).
func TestInstrumentedRunIsRaceFreeUnderScrape(t *testing.T) {
	w := buildWorld(t, guardSrc)
	reg := obs.NewRegistry()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				reg.WritePrometheus(io.Discard)
			}
		}
	}()
	for i := 0; i < 50; i++ {
		v := vm.New(w.prog, vm.DefaultConfig, []string{"5"})
		m := New(w.img, DefaultConfig)
		m.Instrument(reg, "workload", "guard")
		Attach(v, m, nil)
		if res := v.Run(); res.Status != vm.Exited {
			t.Fatalf("run: %+v", res)
		}
	}
	close(done)
	wg.Wait()
	if reg.Counter(obs.Name("ipds_branches_total", "workload", "guard")).Value() == 0 {
		t.Fatal("no branches recorded")
	}
}
