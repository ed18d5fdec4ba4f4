package progen

import (
	"testing"

	"repro/internal/ipds"
	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/internal/vm"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(42)
	b := Generate(42)
	if a.Source != b.Source {
		t.Fatal("same seed produced different programs")
	}
	if len(a.Input) != len(b.Input) {
		t.Fatal("inputs differ")
	}
	c := Generate(43)
	if a.Source == c.Source {
		t.Fatal("different seeds produced identical programs")
	}
}

func TestGeneratedProgramsCompile(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		p := Generate(seed)
		if _, err := pipeline.Compile(p.Source, ir.DefaultOptions); err != nil {
			t.Fatalf("seed %d: compile failed: %v\n--- source ---\n%s", seed, err, p.Source)
		}
	}
}

// TestZeroFalsePositives is the repository's strongest property test:
// for arbitrary generated programs and inputs, an untampered run under
// the IPDS runtime must never raise an alarm. Any alarm here is an
// unsound correlation — a bug in the analysis, not in the program.
func TestZeroFalsePositives(t *testing.T) {
	seeds := int64(250)
	if testing.Short() {
		seeds = 40
	}
	for seed := int64(0); seed < seeds; seed++ {
		p := Generate(seed)
		art, err := pipeline.Compile(p.Source, ir.DefaultOptions)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		v := vm.New(art.Prog, vm.DefaultConfig, p.Input)
		m := ipds.New(art.Image, ipds.DefaultConfig)
		var alarms []ipds.Alarm
		ipds.Attach(v, m, func(a ipds.Alarm) { alarms = append(alarms, a) })
		res := v.Run()
		if res.Status == vm.Faulted {
			t.Fatalf("seed %d: generated program faulted: %v\n--- source ---\n%s",
				seed, res.Fault, p.Source)
		}
		if len(alarms) > 0 {
			t.Fatalf("seed %d: FALSE POSITIVE %v\n--- source ---\n%s",
				seed, alarms[0], p.Source)
		}
	}
}

// TestZeroFalsePositivesUnderAblations re-checks the invariant for
// every analysis variant and pipeline option: weakening the analysis
// must lose detection only, never soundness.
func TestZeroFalsePositivesUnderAblations(t *testing.T) {
	opts := []ir.Options{
		{},
		{Forwarding: true},
		{Forwarding: true, RegionPromotion: true},
		{Forwarding: true, InlineSmall: true},
	}
	for seed := int64(0); seed < 60; seed++ {
		p := Generate(seed)
		for _, o := range opts {
			art, err := pipeline.Compile(p.Source, o)
			if err != nil {
				t.Fatalf("seed %d opts %+v: %v", seed, o, err)
			}
			v := vm.New(art.Prog, vm.DefaultConfig, p.Input)
			m := ipds.New(art.Image, ipds.DefaultConfig)
			var alarms []ipds.Alarm
			ipds.Attach(v, m, func(a ipds.Alarm) { alarms = append(alarms, a) })
			res := v.Run()
			if res.Status == vm.Faulted {
				t.Fatalf("seed %d opts %+v: fault %v", seed, o, res.Fault)
			}
			if len(alarms) > 0 {
				t.Fatalf("seed %d opts %+v: FALSE POSITIVE %v\n%s",
					seed, o, alarms[0], p.Source)
			}
		}
	}
}

// TestGeneratedRunsDeterministic: same program, same input, same
// observable behaviour.
func TestGeneratedRunsDeterministic(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		p := Generate(seed)
		art, err := pipeline.Compile(p.Source, ir.DefaultOptions)
		if err != nil {
			t.Fatal(err)
		}
		run := func() vm.Result {
			return vm.New(art.Prog, vm.DefaultConfig, p.Input).Run()
		}
		a, b := run(), run()
		if a.ExitCode != b.ExitCode || a.Steps != b.Steps || len(a.Output) != len(b.Output) {
			t.Fatalf("seed %d: non-deterministic execution", seed)
		}
	}
}

// TestGeneratedProgramsHaveCorrelations: the generator should routinely
// produce programs the analysis finds something in, or the fuzzing is
// toothless.
func TestGeneratedProgramsHaveCorrelations(t *testing.T) {
	withChecks := 0
	for seed := int64(0); seed < 50; seed++ {
		p := Generate(seed)
		art, err := pipeline.Compile(p.Source, ir.DefaultOptions)
		if err != nil {
			t.Fatal(err)
		}
		for _, ft := range art.Tables.Tables {
			if ft.NumChecked() > 0 {
				withChecks++
				break
			}
		}
	}
	if withChecks < 30 {
		t.Errorf("only %d/50 generated programs have checked branches", withChecks)
	}
}

// TestGeneratedProgramsTerminate: bounded loops and a DAG call graph
// guarantee termination well under the step budget.
func TestGeneratedProgramsTerminate(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		p := Generate(seed)
		art, err := pipeline.Compile(p.Source, ir.DefaultOptions)
		if err != nil {
			t.Fatal(err)
		}
		cfg := vm.DefaultConfig
		cfg.MaxSteps = 2_000_000
		res := vm.New(art.Prog, cfg, p.Input).Run()
		if res.Status == vm.StepLimit {
			t.Fatalf("seed %d: generated program did not terminate\n%s", seed, p.Source)
		}
	}
}

// TestInliningPreservesSemantics: for random programs, the inlined
// build must produce exactly the same observable behaviour as the
// plain build.
func TestInliningPreservesSemantics(t *testing.T) {
	for seed := int64(0); seed < 80; seed++ {
		p := Generate(seed)
		plain, err := pipeline.Compile(p.Source, ir.DefaultOptions)
		if err != nil {
			t.Fatal(err)
		}
		inlined, err := pipeline.Compile(p.Source,
			ir.Options{Forwarding: true, InlineSmall: true})
		if err != nil {
			t.Fatal(err)
		}
		a := vm.New(plain.Prog, vm.DefaultConfig, p.Input).Run()
		b := vm.New(inlined.Prog, vm.DefaultConfig, p.Input).Run()
		if a.Status != b.Status || a.ExitCode != b.ExitCode {
			t.Fatalf("seed %d: semantics changed: %v/%d vs %v/%d\n%s",
				seed, a.Status, a.ExitCode, b.Status, b.ExitCode, p.Source)
		}
		if len(a.Output) != len(b.Output) {
			t.Fatalf("seed %d: output length changed", seed)
		}
		for i := range a.Output {
			if a.Output[i] != b.Output[i] {
				t.Fatalf("seed %d: output[%d] %q vs %q", seed, i, a.Output[i], b.Output[i])
			}
		}
	}
}

func TestGenerateWithCustomConfig(t *testing.T) {
	cfg := Config{
		MaxHelpers: 1, MaxGlobals: 2, MaxLocals: 2,
		MaxStmts: 3, MaxDepth: 2, MaxExprDepth: 2, InputLines: 8,
	}
	p := GenerateWith(7, cfg)
	if len(p.Input) != 8 {
		t.Errorf("input lines = %d", len(p.Input))
	}
	if _, err := pipeline.Compile(p.Source, ir.DefaultOptions); err != nil {
		t.Fatalf("custom config program invalid: %v\n%s", err, p.Source)
	}
}
