package ipds

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/tables"
	"repro/internal/vm"
)

// world bundles a compiled program with its table image.
type world struct {
	prog *ir.Program
	img  *tables.Image
}

func buildWorld(t testing.TB, src string) *world {
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
	return &world{prog: p, img: img}
}

// runGuarded executes the program under IPDS and returns the VM result,
// the alarms the run raised and the machine.
func (w *world) runGuarded(t *testing.T, input []string, tamper func(v *vm.VM)) (vm.Result, []Alarm, *Machine) {
	t.Helper()
	v := vm.New(w.prog, vm.DefaultConfig, input)
	m := New(w.img, DefaultConfig)
	var alarms []Alarm
	Attach(v, m, func(a Alarm) { alarms = append(alarms, a) })
	if tamper != nil {
		tamper(v)
	}
	res := v.Run()
	return res, alarms, m
}

func objID(t *testing.T, p *ir.Program, name string) ir.ObjID {
	t.Helper()
	for _, o := range p.Objects {
		if o.Name == name || strings.HasSuffix(o.Name, "."+name) {
			return o.ID
		}
	}
	t.Fatalf("object %s not found", name)
	return ir.ObjNone
}

const guardedSrc = `
int secret;
void touch() { }
int main() {
	secret = read_int();
	if (secret == 1) {
		print_int(100);
	}
	touch();
	if (secret == 1) {
		return 42;
	}
	return 7;
}`

func TestCleanRunRaisesNoAlarm(t *testing.T) {
	w := buildWorld(t, guardedSrc)
	for _, input := range []string{"1", "0", "-5", "999"} {
		res, alarms, _ := w.runGuarded(t, []string{input}, nil)
		if res.Status != vm.Exited {
			t.Fatalf("input %s: status %v (%v)", input, res.Status, res.Fault)
		}
		if len(alarms) != 0 {
			t.Errorf("input %s: false positive: %v", input, alarms)
		}
	}
}

func TestTamperingDetected(t *testing.T) {
	w := buildWorld(t, guardedSrc)
	// Flip secret from 1 to 0 after the first branch consumed it.
	res, alarms, _ := w.runGuarded(t, []string{"1"}, func(v *vm.VM) {
		id := objID(t, w.prog, "secret")
		poked := false
		v.AddHooks(vm.Hooks{OnBranch: func(br *ir.Instr, taken bool) {
			if !poked && taken {
				addr, ok := v.AddrOfObj(id)
				if !ok {
					t.Fatal("secret unresolved")
				}
				if err := v.Poke(addr, 0, 8); err != nil {
					t.Fatal(err)
				}
				poked = true
			}
		}})
	})
	if res.ExitCode != 7 {
		t.Fatalf("tampering did not change control flow (exit %d)", res.ExitCode)
	}
	if len(alarms) == 0 {
		t.Fatal("tampered control-flow change not detected")
	}
	a := alarms[0]
	if a.Func != "main" || a.Expected != tables.Taken || a.Taken {
		t.Errorf("alarm = %+v", a)
	}
}

func TestTamperBothDirections(t *testing.T) {
	w := buildWorld(t, guardedSrc)
	// Start with secret==0 (branch not taken), then force it to 1.
	res, alarms, _ := w.runGuarded(t, []string{"0"}, func(v *vm.VM) {
		id := objID(t, w.prog, "secret")
		poked := false
		v.AddHooks(vm.Hooks{OnBranch: func(br *ir.Instr, taken bool) {
			if !poked {
				addr, _ := v.AddrOfObj(id)
				if err := v.Poke(addr, 1, 8); err != nil {
					t.Fatal(err)
				}
				poked = true
			}
		}})
	})
	if res.ExitCode != 42 {
		t.Fatalf("exit = %d, want 42 (control flow changed)", res.ExitCode)
	}
	if len(alarms) == 0 {
		t.Fatal("NT->T flip not detected")
	}
}

func TestLegitRedefinitionNoFalsePositive(t *testing.T) {
	// The program itself changes the variable between the branches: the
	// BAT kill must prevent an alarm.
	w := buildWorld(t, `
		int mode;
		int main() {
			mode = read_int();
			if (mode == 1) {
				mode = 2;
			}
			if (mode == 1) {
				return 1;
			}
			return 0;
		}`)
	for _, in := range []string{"1", "2"} {
		res, alarms, _ := w.runGuarded(t, []string{in}, nil)
		if res.Status != vm.Exited {
			t.Fatalf("status %v", res.Status)
		}
		if len(alarms) != 0 {
			t.Errorf("input %s: false positive %v", in, alarms)
		}
	}
}

func TestLoopSelfCorrelationDetectsTamper(t *testing.T) {
	w := buildWorld(t, `
		int limit;
		void spin() { }
		int main() {
			int i;
			limit = 10;
			i = 0;
			while (i < 3) {
				if (limit > 5) {
					spin();
				}
				i = i + 1;
			}
			return 0;
		}`)
	// Clean loop: no alarms.
	if _, alarms, _ := w.runGuarded(t, nil, nil); len(alarms) != 0 {
		t.Fatalf("false positive: %v", alarms)
	}
	// Tamper limit right after its branch first resolves: the repeated
	// branch flips in the next iteration.
	_, alarms, _ := w.runGuarded(t, nil, func(v *vm.VM) {
		id := objID(t, w.prog, "limit")
		poked := false
		v.AddHooks(vm.Hooks{OnBranch: func(br *ir.Instr, taken bool) {
			if !poked && br.Cond == ir.CondGt {
				addr, _ := v.AddrOfObj(id)
				_ = v.Poke(addr, 0, 8)
				poked = true
			}
		}})
	})
	if len(alarms) == 0 {
		t.Fatal("loop-carried tamper not detected")
	}
}

func TestCalleeTablesPushedAndPopped(t *testing.T) {
	w := buildWorld(t, `
		int g;
		int check() {
			if (g < 5) { return 1; }
			return 0;
		}
		int main() {
			int i; int s;
			g = 3;
			s = 0;
			for (i = 0; i < 4; i++) {
				s = s + check();
			}
			return s;
		}`)
	res, alarms, m := w.runGuarded(t, nil, nil)
	if res.ExitCode != 4 {
		t.Fatalf("exit = %d", res.ExitCode)
	}
	if len(alarms) != 0 {
		t.Fatalf("false positive: %v", alarms)
	}
	st := m.Stats()
	if st.Pushes != 5 { // main + 4 check calls
		t.Errorf("pushes = %d, want 5", st.Pushes)
	}
	if st.Pops != 5 {
		t.Errorf("pops = %d, want 5", st.Pops)
	}
	if m.Depth() != 0 {
		t.Errorf("depth = %d after exit", m.Depth())
	}
}

func TestCrossCallDetection(t *testing.T) {
	// Tampering inside a callee (modelled via hook) must be caught by
	// the caller's tables after return... the callee's own self
	// correlation also fires across its repeated calls? No: each call
	// pushes fresh UNKNOWN status. The detection comes from main's
	// correlation pair around the call.
	w := buildWorld(t, `
		int g;
		void work() { print_int(1); }
		int main() {
			g = read_int();
			if (g < 5) {
				work();
			}
			if (g < 9) {
				return 1;
			}
			return 0;
		}`)
	res, alarms, _ := w.runGuarded(t, []string{"3"}, func(v *vm.VM) {
		id := objID(t, w.prog, "g")
		v.AddHooks(vm.Hooks{OnCall: func(fn *ir.Func) {
			if fn.Name == "work" {
				addr, _ := v.AddrOfObj(id)
				_ = v.Poke(addr, 100, 8)
			}
		}})
	})
	if res.ExitCode != 0 {
		t.Fatalf("exit = %d, want 0 (flow changed)", res.ExitCode)
	}
	if len(alarms) == 0 {
		t.Fatal("cross-call tamper not detected")
	}
}

func TestSpillAndFill(t *testing.T) {
	w := buildWorld(t, `
		int g;
		int deep(int n) {
			if (g == 7) {
				print_int(n);
			}
			if (n <= 0) { return 0; }
			return deep(n - 1) + 1;
		}
		int main() {
			g = 7;
			return deep(100);
		}`)
	v := vm.New(w.prog, vm.DefaultConfig, nil)
	// Tiny on-chip buffers force spills on the deep call chain.
	m := New(w.img, Config{BSVStackBits: 64, BCVStackBits: 32, BATStackBits: 512})
	Attach(v, m, nil)
	res := v.Run()
	if res.Status != vm.Exited || res.ExitCode != 100 {
		t.Fatalf("res = %+v", res)
	}
	st := m.Stats()
	if st.SpillEvents == 0 || st.FillEvents == 0 {
		t.Errorf("expected spill/fill traffic, got %+v", st)
	}
	if st.Alarms != 0 {
		t.Errorf("false positive under spilling: %d alarms", st.Alarms)
	}
}

func TestStatsAndStatus(t *testing.T) {
	w := buildWorld(t, guardedSrc)
	v := vm.New(w.prog, vm.DefaultConfig, []string{"1"})
	m := New(w.img, DefaultConfig)
	Attach(v, m, nil)
	v.Run()
	st := m.Stats()
	if st.Branches == 0 || st.Updates == 0 || st.Verified == 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.Alarms != 0 {
		t.Errorf("clean run alarms = %d", st.Alarms)
	}
	// After Reset everything zeroes.
	m.Reset()
	if m.Stats() != (Stats{}) || m.Depth() != 0 {
		t.Error("reset incomplete")
	}
}

func TestMachineIgnoresUnknownFunctions(t *testing.T) {
	w := buildWorld(t, guardedSrc)
	m := New(w.img, DefaultConfig)
	m.EnterFunc(0xdeadbeef) // library code without tables
	if a, cost := m.OnBranch(0xdeadbf00, true); a != nil || cost != 1 {
		t.Errorf("unknown function branch: alarm=%v cost=%d", a, cost)
	}
	m.LeaveFunc()
	m.LeaveFunc() // extra pop is a no-op
	if m.Depth() != 0 {
		t.Errorf("depth = %d", m.Depth())
	}
}

func TestOnBranchWithEmptyStack(t *testing.T) {
	w := buildWorld(t, guardedSrc)
	m := New(w.img, DefaultConfig)
	if a, _ := m.OnBranch(0x1004, true); a != nil {
		t.Error("no frame, no alarm")
	}
}

func TestAlarmString(t *testing.T) {
	a := Alarm{Seq: 3, PC: 0x1010, Func: "main", Expected: tables.Taken, Taken: false}
	s := a.String()
	for _, want := range []string{"main", "0x1010", "expected T"} {
		if !strings.Contains(s, want) {
			t.Errorf("alarm string %q missing %q", s, want)
		}
	}
}

func TestStatusQuery(t *testing.T) {
	w := buildWorld(t, guardedSrc)
	v := vm.New(w.prog, vm.DefaultConfig, []string{"1"})
	m := New(w.img, DefaultConfig)
	Attach(v, m, nil)
	if m.Status(0x1004) != tables.Unknown {
		t.Error("empty machine status must be unknown")
	}
	v.Run()
}

func TestStatusReflectsUpdates(t *testing.T) {
	w := buildWorld(t, `
		int g;
		int main() {
			g = read_int();
			if (g == 5) { print_int(1); }
			print_int(2);
			if (g == 5) { return 1; }
			return 0;
		}`)
	v := vm.New(w.prog, vm.DefaultConfig, []string{"5"})
	m := New(w.img, DefaultConfig)
	Attach(v, m, nil)
	brs := w.prog.ByName["main"].Branches()
	statuses := []tables.Status{}
	v.AddHooks(vm.Hooks{OnBranch: func(br *ir.Instr, taken bool) {
		statuses = append(statuses, m.Status(brs[len(brs)-1].PC))
	}})
	v.Run()
	if len(statuses) < 2 {
		t.Fatal("branches missing")
	}
	// After the first g==5 branch (taken), the second must be expected
	// taken.
	if statuses[0] != tables.Taken {
		t.Errorf("expected T after first check, got %v", statuses[0])
	}
}
