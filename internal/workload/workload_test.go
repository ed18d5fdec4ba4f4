package workload

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/ipds"
	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/internal/vm"
)

func TestRegistry(t *testing.T) {
	ws := All()
	if len(ws) != 10 {
		t.Fatalf("workloads = %d, want 10", len(ws))
	}
	seen := map[string]bool{}
	for _, w := range ws {
		if seen[w.Name] {
			t.Errorf("duplicate workload %s", w.Name)
		}
		seen[w.Name] = true
		if ByName(w.Name) != nil && ByName(w.Name).Name != w.Name {
			t.Errorf("ByName(%s) broken", w.Name)
		}
		if w.Vuln == "" || w.Source == "" {
			t.Errorf("%s: incomplete workload", w.Name)
		}
		if len(w.AttackSession) == 0 || len(w.PerfSession) == 0 {
			t.Errorf("%s: missing sessions", w.Name)
		}
		if len(w.ExtraSessions) < 2 {
			t.Errorf("%s: want at least 2 extra sessions, have %d", w.Name, len(w.ExtraSessions))
		}
		if got := len(w.Sessions()); got != 1+len(w.ExtraSessions) {
			t.Errorf("%s: Sessions() = %d entries", w.Name, got)
		}
	}
	if ByName("nonexistent") != nil {
		t.Error("ByName should return nil for unknown names")
	}
}

func TestAllCompile(t *testing.T) {
	for _, w := range All() {
		if _, err := pipeline.Compile(w.Source, ir.DefaultOptions); err != nil {
			t.Errorf("%s: compile failed: %v", w.Name, err)
		}
	}
}

func TestAllRunCleanSessions(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			art, err := pipeline.Compile(w.Source, ir.DefaultOptions)
			if err != nil {
				t.Fatal(err)
			}
			sessions := map[string][]string{
				"attack": w.AttackSession,
				"perf":   w.PerfSession,
			}
			for i, s := range w.ExtraSessions {
				sessions[fmt.Sprintf("extra%d", i)] = s
			}
			for name, session := range sessions {
				v := vm.New(art.Prog, vm.DefaultConfig, session)
				m := ipds.New(art.Image, ipds.DefaultConfig)
				var alarms []ipds.Alarm
				ipds.Attach(v, m, func(a ipds.Alarm) { alarms = append(alarms, a) })
				res := v.Run()
				if res.Status != vm.Exited {
					t.Fatalf("%s session: %v (%v)", name, res.Status, res.Fault)
				}
				if len(alarms) != 0 {
					t.Fatalf("%s session: false positive: %v", name, alarms[0])
				}
				if len(res.Output) == 0 {
					t.Errorf("%s session: no output", name)
				}
				if len(res.Branches) < 20 {
					t.Errorf("%s session: only %d branch events", name, len(res.Branches))
				}
			}
		})
	}
}

func TestAllHaveCorrelations(t *testing.T) {
	for _, w := range All() {
		art, err := pipeline.Compile(w.Source, ir.DefaultOptions)
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		actions := 0
		for _, ft := range art.Tables.Tables {
			checked += ft.NumChecked()
			actions += ft.NumActions()
		}
		if checked < 3 {
			t.Errorf("%s: only %d checked branches; the workload is too thin", w.Name, checked)
		}
		if actions < 6 {
			t.Errorf("%s: only %d BAT actions", w.Name, actions)
		}
	}
}

func TestPerfSessionsAreSubstantial(t *testing.T) {
	for _, w := range All() {
		art, err := pipeline.Compile(w.Source, ir.DefaultOptions)
		if err != nil {
			t.Fatal(err)
		}
		v := vm.New(art.Prog, vm.DefaultConfig, w.PerfSession)
		res := v.Run()
		if res.Status != vm.Exited {
			t.Fatalf("%s: perf run %v (%v)", w.Name, res.Status, res.Fault)
		}
		if res.Steps < 20_000 {
			t.Errorf("%s: perf session too short: %d steps", w.Name, res.Steps)
		}
	}
}

func TestOverflowsActuallyOverflow(t *testing.T) {
	// The telnetd term handler's unbounded read must clobber the
	// adjacent privilege snapshot when fed a long line: a guest
	// session suddenly prints the admin variant.
	w := Telnetd()
	art, err := pipeline.Compile(w.Source, ir.DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	session := []string{
		"login", "guest", "guest",
		"term", "xxxxxxxx\x01\x00", // overruns termtype[8] into privileged
		"quit",
	}
	v := vm.New(art.Prog, vm.DefaultConfig, session)
	res := v.Run()
	if res.Status != vm.Exited {
		t.Fatalf("run: %v (%v)", res.Status, res.Fault)
	}
	found := false
	for _, line := range res.Output {
		if line == "term set (admin)" {
			found = true
		}
	}
	if !found {
		t.Errorf("overflow did not escalate: output = %v", res.Output)
	}
}

// TestAllReturnsIndependentCopies: All and ByName build the workloads
// once and hand out copies. Two calls return equal workloads, and
// changing a returned one — a field, or an element of a session
// slice — does not change what the next call returns.
func TestAllReturnsIndependentCopies(t *testing.T) {
	a, b := All(), All()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two All() calls returned different workloads")
	}
	w := a[0]
	w.Name = "changed"
	w.Source = ""
	w.AttackSession[0] = "changed"
	w.PerfSession[0] = "changed"
	w.ExtraSessions[0][0] = "changed"
	w.ExtraSessions = nil
	if c := All(); !reflect.DeepEqual(b, c) {
		t.Fatal("changing a returned workload changed the next All()")
	}
	n := ByName("telnetd")
	n.PerfSession[0] = "changed"
	if m := ByName("telnetd"); !reflect.DeepEqual(m, b[0]) {
		t.Fatal("changing a ByName workload changed the next ByName")
	}
}
