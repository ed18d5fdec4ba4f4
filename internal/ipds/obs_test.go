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

// --- Alarm ring buffer ------------------------------------------------

func TestAlarmRingBounded(t *testing.T) {
	r := newAlarmRing(4)
	for i := 0; i < 10; i++ {
		r.push(Alarm{Seq: uint64(i)})
	}
	got := r.all()
	if len(got) != 4 {
		t.Fatalf("ring holds %d alarms, want 4", len(got))
	}
	for i, a := range got {
		if a.Seq != uint64(6+i) {
			t.Fatalf("ring[%d].Seq = %d, want %d (oldest-first after eviction)", i, a.Seq, 6+i)
		}
	}
	if r.dropped != 6 {
		t.Fatalf("dropped = %d, want 6", r.dropped)
	}
	r.reset()
	if len(r.all()) != 0 || r.dropped != 0 {
		t.Fatal("reset did not clear the ring")
	}
}

// fixedRing is a reference alarm ring with its full capacity allocated
// up front; TestAlarmRingGrowth holds the growing ring to its contents
// and drop count.
type fixedRing struct {
	buf      []Alarm
	start, n int
	dropped  uint64
}

func (r *fixedRing) push(a Alarm) {
	if r.n < len(r.buf) {
		r.buf[(r.start+r.n)%len(r.buf)] = a
		r.n++
		return
	}
	r.buf[r.start] = a
	r.start = (r.start + 1) % len(r.buf)
	r.dropped++
}

// TestAlarmRingGrowth pushes past the default capacity while the ring
// grows, and checks it retains exactly what a preallocated ring would,
// allocates nothing before the first alarm, doubles from alarmRingMin,
// and keeps its grown buffer across reset.
func TestAlarmRingGrowth(t *testing.T) {
	r := newAlarmRing(0)
	if r.buf != nil || r.all() != nil {
		t.Fatal("an empty ring must hold no buffer")
	}
	ref := &fixedRing{buf: make([]Alarm, DefaultAlarmBuffer)}
	wantCap := alarmRingMin
	for i := range 3000 {
		a := Alarm{Seq: uint64(i), PC: uint64(4 * i), Func: "f"}
		r.push(a)
		ref.push(a)
		if i < DefaultAlarmBuffer && i == wantCap {
			wantCap *= 2
		}
		if len(r.buf) != min(wantCap, DefaultAlarmBuffer) {
			t.Fatalf("after %d alarms the buffer holds %d, want %d", i+1, len(r.buf), min(wantCap, DefaultAlarmBuffer))
		}
	}
	got, want := r.all(), make([]Alarm, 0, ref.n)
	for i := range ref.n {
		want = append(want, ref.buf[(ref.start+i)%len(ref.buf)])
	}
	if len(got) != DefaultAlarmBuffer || got[0].Seq != 3000-DefaultAlarmBuffer || r.dropped != 1976 {
		t.Fatalf("ring keeps %d alarms from Seq %d, %d dropped; want 1024 from 1976, 1976 dropped", len(got), got[0].Seq, r.dropped)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("alarm %d: got %+v, preallocated ring has %+v", i, got[i], want[i])
		}
	}
	if r.dropped != ref.dropped {
		t.Fatalf("dropped %d, preallocated ring dropped %d", r.dropped, ref.dropped)
	}
	buf := r.buf
	r.reset()
	if r.all() != nil || r.dropped != 0 || &r.buf[0] != &buf[0] || len(r.buf) != DefaultAlarmBuffer {
		t.Fatal("reset must empty the ring and keep its grown buffer")
	}
}

func TestMachineAlarmOverflowCounted(t *testing.T) {
	w := buildWorld(t, guardSrc)
	cfg := DefaultConfig
	cfg.AlarmBuffer = 2
	reg := obs.NewRegistry()

	v := vm.New(w.prog, vm.DefaultConfig, []string{"5"})
	m := New(w.img, cfg)
	m.Instrument(reg)
	Attach(v, m)
	// Force repeated mismatches by corrupting the BSV expectation after
	// every branch: raise alarms straight from the machine instead.
	v.Run()
	main := w.img.FuncByName("main")
	if main == nil {
		t.Fatal("no main image")
	}
	// Raise 5 synthetic alarms through the bounded ring.
	for i := 0; i < 5; i++ {
		m.pushAlarm(Alarm{Seq: uint64(100 + i), Func: "main"}, nil)
	}
	if got := len(m.Alarms()); got != 2 {
		t.Fatalf("retained %d alarms, want 2 (bounded)", got)
	}
	if m.Stats().AlarmsDropped != 3 {
		t.Fatalf("AlarmsDropped = %d, want 3", m.Stats().AlarmsDropped)
	}
	if got := reg.Counter("ipds_alarms_dropped_total").Value(); got != 3 {
		t.Fatalf("ipds_alarms_dropped_total = %d, want 3", got)
	}
	if got := reg.Counter("ipds_alarms_total").Value(); got != 5 {
		t.Fatalf("ipds_alarms_total = %d, want 5", got)
	}
}

// --- Event stream -----------------------------------------------------

func TestEventSinkReceivesLifecycle(t *testing.T) {
	w := buildWorld(t, guardSrc)
	v := vm.New(w.prog, vm.DefaultConfig, []string{"5"})
	m := New(w.img, DefaultConfig)
	counts := map[EventKind]int{}
	m.SetEventSink(FuncSink(func(e Event) { counts[e.Kind]++ }))
	Attach(v, m)
	if res := v.Run(); res.Status != vm.Exited {
		t.Fatalf("run: %+v", res)
	}
	if counts[EvEnter] == 0 || counts[EvLeave] == 0 {
		t.Fatalf("missing enter/leave events: %v", counts)
	}
	if counts[EvAlarm] != 0 {
		t.Fatalf("clean run published alarms: %v", counts)
	}

	// A tampered expectation must publish exactly the raised alarms.
	var alarms []Alarm
	m.SetEventSink(FuncSink(func(e Event) {
		if e.Kind == EvAlarm {
			alarms = append(alarms, *e.Alarm)
		}
	}))
	m.pushAlarm(Alarm{Seq: 42, Func: "main"}, nil)
	if len(alarms) != 1 || alarms[0].Seq != 42 {
		t.Fatalf("alarm event not delivered: %v", alarms)
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
	Attach(v, m)
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
		Attach(v, m)
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
