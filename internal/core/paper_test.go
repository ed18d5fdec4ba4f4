package core_test

// paper_test.go replays the paper's worked examples (Figures 2, 3 and
// 4) against the implementation, asserting both the static tables and
// the dynamic BSV evolution the paper narrates.

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/ipds"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/tables"
	"repro/internal/vm"
)

func buildImage(t *testing.T, src string) (*ir.Program, *core.Result, *tables.Image) {
	t.Helper()
	mp, err := minic.Compile(src)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	p, err := ir.Lower(mp, ir.DefaultOptions)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	res := core.Build(p, nil)
	img, err := tables.Encode(res)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return p, res, img
}

// TestPaperFigure2 models the loop of Figure 2: with x < 0 established
// at BB1's branch and x unmodified around the loop, the back edge must
// be taken and the next iteration must branch the same way; a tampered
// x is caught.
func TestPaperFigure2(t *testing.T) {
	src := `
	int x;
	void work() { print_int(1); }
	int main() {
		int rounds;
		x = read_int();
		rounds = 0;
		while (x < 10) {          // BB1's branch: x < 10
			if (x < 0) {          // BB2/BB4 split on x
				work();
			}
			rounds = rounds + 1;
			if (rounds > 6) { return rounds; }
		}
		return 0;
	}`
	p, _, img := buildImage(t, src)

	// Clean negative input: loops forever until the round guard; no
	// alarm even though both x branches repeat many times.
	v := vm.New(p, vm.DefaultConfig, []string{"-3"})
	m := ipds.New(img, ipds.DefaultConfig)
	var alarms []ipds.Alarm
	ipds.Attach(v, m, func(a ipds.Alarm) { alarms = append(alarms, a) })
	res := v.Run()
	if res.Status != vm.Exited || res.ExitCode != 7 {
		t.Fatalf("clean run: %+v", res)
	}
	if len(alarms) != 0 {
		t.Fatalf("false positive: %v", alarms)
	}

	// Tamper x from -3 to 50 mid-loop: "variable x must be corrupted
	// when it is loaded back from the memory".
	var xID ir.ObjID = ir.ObjNone
	for _, o := range p.Objects {
		if o.Name == "x" {
			xID = o.ID
		}
	}
	v2 := vm.New(p, vm.DefaultConfig, []string{"-3"})
	m2 := ipds.New(img, ipds.DefaultConfig)
	var alarms2 []ipds.Alarm
	ipds.Attach(v2, m2, func(a ipds.Alarm) { alarms2 = append(alarms2, a) })
	poked := false
	v2.AddHooks(vm.Hooks{OnStep: func(step uint64) {
		if !poked && step == 40 {
			addr, _ := v2.AddrOfObj(xID)
			_ = v2.Poke(addr, 50, 8)
			poked = true
		}
	}})
	v2.Run()
	if len(alarms2) == 0 {
		t.Fatal("Figure 2 tampering not detected")
	}
}

// fig3Src is the Figure 3.a control-flow skeleton: branches on y (<5),
// x (>10, taken arm redefines x), y again (<10, not-taken arm redefines
// y), in a loop.
const fig3Src = `
int x; int y;
int main() {
	int n;
	n = read_int();
	while (n > 0) {
		if (y < 5) {
			if (x > 10) {
				x = read_int();
			}
		}
		if (y < 10) {
			print_int(1);
		} else {
			y = read_int();
		}
		n = n - 1;
	}
	return 0;
}`

// TestPaperFigure3Subsumption asserts the three correlations the paper
// reads off Figure 3.a: y<5 subsumes y<10; x>10's not-taken leaves x's
// branch repeatable while its taken arm makes it unknown.
func TestPaperFigure3Subsumption(t *testing.T) {
	p, res, _ := buildImage(t, fig3Src)
	f := p.ByName["main"]
	ft := res.Tables[f]
	brs := f.Branches() // n>0, y<5, x>10, y<10
	brY5, brX, brY10 := brs[1], brs[2], brs[3]

	check := func(src *ir.Instr, dir int, tgt *ir.Instr, want core.Action, context string) {
		t.Helper()
		var acts []core.Action
		for _, u := range ft.Actions[core.Event{src, dirOf(dir)}] {
			if u.Target == tgt {
				acts = append(acts, u.Act)
			}
		}
		if len(acts) != 1 || acts[0] != want {
			t.Errorf("%s: actions = %v, want [%v]", context, acts, want)
		}
	}
	check(brY5, 0, brY10, core.SetTaken, "y<5 taken forces y<10 taken")
	check(brY5, 0, brY5, core.SetTaken, "y<5 taken repeats")
	check(brX, 1, brX, core.SetNotTaken, "x>10 not-taken repeats (x unmodified)")
	check(brX, 0, brX, core.SetUnknown, "x>10 taken redefines x -> unknown")
	check(brY10, 1, brY10, core.SetUnknown, "y<10 not-taken redefines y -> unknown")
	check(brY10, 1, brY5, core.SetUnknown, "y redefinition also kills y<5")
}

// TestPaperFigure4Narrative replays the BSV walkthrough of Figure 4 on
// the live runtime: after BR1 (y<5) is taken, BR1 and BR5 (y<10) are
// expected taken; after BR2 (x>10) is taken its own status becomes
// unknown because x is redefined.
func TestPaperFigure4Narrative(t *testing.T) {
	p, _, img := buildImage(t, fig3Src)
	f := p.ByName["main"]
	brs := f.Branches()
	brY5, brX, brY10 := brs[1], brs[2], brs[3]

	// Input: n=2 iterations; y starts 0 (y<5 taken), x starts 0 (x>10
	// not taken).
	v := vm.New(p, vm.DefaultConfig, []string{"2"})
	m := ipds.New(img, ipds.DefaultConfig)
	var alarms []ipds.Alarm
	ipds.Attach(v, m, func(a ipds.Alarm) { alarms = append(alarms, a) })

	type snapshot struct {
		after *ir.Instr
		y5    tables.Status
		y10   tables.Status
		x     tables.Status
	}
	var snaps []snapshot
	v.AddHooks(vm.Hooks{OnBranch: func(br *ir.Instr, taken bool) {
		snaps = append(snaps, snapshot{
			after: br,
			y5:    m.Status(brY5.PC),
			y10:   m.Status(brY10.PC),
			x:     m.Status(brX.PC),
		})
	}})
	res := v.Run()
	if res.Status != vm.Exited {
		t.Fatalf("run: %+v", res)
	}
	if len(alarms) != 0 {
		t.Fatalf("false positive: %v", alarms)
	}

	// Find the snapshot right after the first execution of BR1 (y<5).
	idx := -1
	for i, s := range snaps {
		if s.after == brY5 {
			idx = i
			break
		}
	}
	if idx < 0 {
		t.Fatal("y<5 never executed")
	}
	s := snaps[idx]
	if s.y5 != tables.Taken {
		t.Errorf("after BR1 taken: BSV[BR1] = %v, want T", s.y5)
	}
	if s.y10 != tables.Taken {
		t.Errorf("after BR1 taken: BSV[BR5] = %v, want T (subsumption)", s.y10)
	}

	// After BR2 (x>10, not taken since x=0): its own status is NT —
	// the paper's scenario 2 (unmodified variable repeats).
	for _, s := range snaps {
		if s.after == brX {
			if s.x != tables.NotTaken {
				t.Errorf("after BR2 NT: BSV[BR2] = %v, want NT", s.x)
			}
			break
		}
	}
}

// TestPaperFigure3cArithmetic replays Figure 3.c: y<5 established, the
// reloaded y decremented by one, and the branch (y-1)<10 must be taken;
// tampering y in between is detected.
func TestPaperFigure3cArithmetic(t *testing.T) {
	src := `
	int y;
	int main() {
		int r1;
		y = read_int();
		if (y < 5) {
			r1 = y - 1;
			if (r1 < 10) {
				return 1;
			}
			return 2;
		}
		return 0;
	}`
	p, res, img := buildImage(t, src)
	f := p.ByName["main"]
	ft := res.Tables[f]
	brs := f.Branches()
	// Static: y<5 taken forces (y-1)<10 taken.
	found := false
	for _, u := range ft.Actions[core.Event{brs[0], 0}] {
		if u.Target == brs[1] && u.Act == core.SetTaken {
			found = true
		}
	}
	if !found {
		t.Fatal("Figure 3.c correlation missing")
	}

	// Dynamic: tamper y between the two branches; r1 = y-1 reloads y.
	var yID ir.ObjID
	for _, o := range p.Objects {
		if o.Name == "y" {
			yID = o.ID
		}
	}
	v := vm.New(p, vm.DefaultConfig, []string{"3"})
	m := ipds.New(img, ipds.DefaultConfig)
	var alarms []ipds.Alarm
	ipds.Attach(v, m, func(a ipds.Alarm) { alarms = append(alarms, a) })
	v.AddHooks(vm.Hooks{OnBranch: func(br *ir.Instr, taken bool) {
		if br == brs[0] {
			addr, _ := v.AddrOfObj(yID)
			_ = v.Poke(addr, 1000, 8)
		}
	}})
	resRun := v.Run()
	if resRun.ExitCode != 2 {
		t.Fatalf("tamper did not change flow: exit %d", resRun.ExitCode)
	}
	if len(alarms) == 0 {
		t.Fatal("Figure 3.c tampering not detected")
	}
}

func dirOf(d int) cfg.Direction {
	if d == 0 {
		return cfg.Taken
	}
	return cfg.NotTaken
}

// TestStructFieldCorrelations: split struct fields behave like scalar
// variables — correlated, checked, and tamper-detectable — while
// address-escaped structs degrade conservatively.
func TestStructFieldCorrelations(t *testing.T) {
	p, res, img := buildImage(t, `
	struct Session { int authed; int isadmin; char user[8]; };
	int main() {
		struct Session s;
		s.authed = read_int();
		if (s.authed == 1) {
			print_str("in");
		}
		print_int(0);
		if (s.authed == 1) {
			return 1;
		}
		return 0;
	}`)
	f := p.ByName["main"]
	ft := res.Tables[f]
	// The first branch tests the still-forwarded read_int result (a
	// store→load source); the second reloads the field and is checked.
	if ft.NumChecked() < 1 {
		t.Fatalf("struct field branches not checked: %d", ft.NumChecked())
	}
	hasStoreLoad := false
	for _, corr := range ft.Correlations {
		if corr.Kind == core.StoreLoad {
			hasStoreLoad = true
		}
	}
	if !hasStoreLoad {
		t.Fatal("expected a store→load correlation through the struct field")
	}
	// Clean runs: no alarms either way.
	for _, in := range []string{"1", "0"} {
		v := vm.New(p, vm.DefaultConfig, []string{in})
		m := ipds.New(img, ipds.DefaultConfig)
		var alarms []ipds.Alarm
		ipds.Attach(v, m, func(a ipds.Alarm) { alarms = append(alarms, a) })
		v.Run()
		if len(alarms) != 0 {
			t.Fatalf("false positive on struct field: %v", alarms)
		}
	}
	// Tamper the field between the checks: detected.
	var fieldObj ir.ObjID = ir.ObjNone
	for _, o := range p.Objects {
		if o.Name == "main.s.authed" {
			fieldObj = o.ID
		}
	}
	if fieldObj == ir.ObjNone {
		t.Fatal("split field object main.s.authed missing")
	}
	v := vm.New(p, vm.DefaultConfig, []string{"1"})
	m := ipds.New(img, ipds.DefaultConfig)
	var alarms []ipds.Alarm
	ipds.Attach(v, m, func(a ipds.Alarm) { alarms = append(alarms, a) })
	poked := false
	v.AddHooks(vm.Hooks{OnBranch: func(br *ir.Instr, taken bool) {
		if !poked {
			addr, ok := v.AddrOfObj(fieldObj)
			if ok {
				_ = v.Poke(addr, 0, 8)
				poked = true
			}
		}
	}})
	out := v.Run()
	if out.ExitCode != 0 {
		t.Fatalf("tamper did not change flow: %d", out.ExitCode)
	}
	if len(alarms) == 0 {
		t.Fatal("struct-field tampering not detected")
	}
}
