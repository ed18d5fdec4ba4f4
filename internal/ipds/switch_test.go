package ipds

import (
	"testing"

	"repro/internal/vm"
)

// scheduler timeshares one hardware Machine between two guarded VMs,
// suspending/resuming per-process IPDS state every quantum — the §5.4
// context-switch model.
type process struct {
	v  *vm.VM
	ps *ProcessState
}

func TestContextSwitchTwoProcesses(t *testing.T) {
	wA := buildWorld(t, `
		int flag;
		int main() {
			int i;
			flag = 1;
			for (i = 0; i < 50; i++) {
				if (flag == 1) { print_int(i); }
			}
			return 1;
		}`)
	wB := buildWorld(t, `
		int mode;
		int main() {
			int i;
			mode = 3;
			for (i = 0; i < 70; i++) {
				if (mode > 2) { print_int(i); }
			}
			return 2;
		}`)

	// One hardware unit.
	hw := New(wA.img, DefaultConfig)

	vA := vm.New(wA.prog, vm.DefaultConfig, nil)
	Attach(vA, hw, nil)
	vB := vm.New(wB.prog, vm.DefaultConfig, nil)
	Attach(vB, hw, nil)

	// Process A starts on the hardware; B's state begins suspended and
	// empty (bound to B's image).
	if err := vA.Start(); err != nil {
		t.Fatal(err)
	}
	psA := hw.Suspend()
	hwB := New(wB.img, DefaultConfig)
	// Transplant B's empty state into the shared unit via a
	// suspend/resume round trip.
	psB := hwB.Suspend()
	hw.Resume(psB)
	if err := vB.Start(); err != nil {
		t.Fatal(err)
	}
	psB = hw.Suspend()

	procs := []*process{{v: vA, ps: psA}, {v: vB, ps: psB}}
	cur := -1
	const quantum = 37
	switches := 0
	for !vA.Done() || !vB.Done() {
		next := -1
		for i, p := range procs {
			if !p.v.Done() {
				next = i
				break
			}
		}
		if cur != next {
			if cur >= 0 {
				procs[cur].ps = hw.Suspend()
			}
			hw.Resume(procs[next].ps)
			switches++
			cur = next
		}
		for i := 0; i < quantum && !procs[cur].v.Done(); i++ {
			procs[cur].v.Step()
		}
		// Round-robin: force a switch if the other is alive.
		other := 1 - cur
		if !procs[other].v.Done() {
			procs[cur].ps = hw.Suspend()
			hw.Resume(procs[other].ps)
			switches++
			cur = other
		}
	}
	procs[cur].ps = hw.Suspend()

	if switches < 3 {
		t.Fatalf("only %d context switches; scheduler broken", switches)
	}
	resA, resB := vA.Result(), vB.Result()
	if resA.Status != vm.Exited || resA.ExitCode != 1 {
		t.Fatalf("A: %+v", resA)
	}
	if resB.Status != vm.Exited || resB.ExitCode != 2 {
		t.Fatalf("B: %+v", resB)
	}
	// Zero false positives across interleaving, and per-process stats
	// stayed separated.
	if a, b := procs[0].ps.Stats().Alarms, procs[1].ps.Stats().Alarms; a != 0 || b != 0 {
		t.Fatalf("false positives across context switches: %d %d alarms", a, b)
	}
	if procs[0].ps.stats.Branches == 0 || procs[1].ps.stats.Branches == 0 {
		t.Error("per-process branch counts lost across switches")
	}
	if procs[0].ps.stats.Branches == procs[1].ps.stats.Branches {
		t.Error("suspiciously identical branch counts; state may be shared")
	}
}

func TestContextSwitchDetectionSurvives(t *testing.T) {
	// Tampering process A's flag while B timeshares the hardware must
	// still be detected in A's state.
	w := buildWorld(t, `
		int flag;
		int main() {
			int i;
			flag = 1;
			for (i = 0; i < 40; i++) {
				if (flag == 1) { print_int(i); }
			}
			return 0;
		}`)
	hw := New(w.img, DefaultConfig)
	v := vm.New(w.prog, vm.DefaultConfig, nil)
	Attach(v, hw, nil)
	if err := v.Start(); err != nil {
		t.Fatal(err)
	}

	flagID := objID(t, w.prog, "flag")
	steps := 0
	for !v.Done() {
		v.Step()
		steps++
		if steps == 60 {
			// Mid-run context switch: out and back.
			ps := hw.Suspend()
			if ps.Depth() == 0 {
				t.Fatal("no table stack captured")
			}
			hw.Resume(ps)
			// Tamper right after resuming.
			addr, _ := v.AddrOfObj(flagID)
			_ = v.Poke(addr, 0, 8)
		}
	}
	if hw.Stats().Alarms == 0 {
		t.Fatal("tamper across a context switch went undetected")
	}
}

func TestProcessStateBits(t *testing.T) {
	w := buildWorld(t, guardedSrc)
	m := New(w.img, DefaultConfig)
	main := w.prog.ByName["main"]
	m.EnterFunc(main.Base)
	m.EnterFunc(w.prog.ByName["touch"].Base)
	ps := m.Suspend()
	if ps.Depth() != 2 {
		t.Fatalf("depth = %d", ps.Depth())
	}
	// touch has no branches; its frame is tiny but present. Critical
	// bits cover only the top frame; lazy bits the rest.
	if ps.CriticalBits() < 0 || ps.LazyBits() <= 0 {
		t.Errorf("bits: critical=%d lazy=%d", ps.CriticalBits(), ps.LazyBits())
	}
	m.Resume(ps)
	if m.Depth() != 2 {
		t.Errorf("resume lost stack depth")
	}
	// Machine is clean after Suspend: usable for another process.
	ps2 := m.Suspend()
	if ps2.Depth() != 2 {
		t.Errorf("second suspend depth = %d", ps2.Depth())
	}
	if m.Depth() != 0 || m.Stats().Branches != 0 {
		t.Errorf("machine not clean after suspend")
	}
}
