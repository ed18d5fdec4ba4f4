// Package attack implements the paper's simulated-attack methodology
// (§6): repeated, independent, seeded memory tamperings of a running
// program, scored by whether the tampering changed control flow and
// whether the IPDS detected the resulting infeasible path.
//
// Two attack models are provided, mirroring the paper's vulnerability
// classes: Overflow restricts victims to stack-resident data (what a
// buffer overflow can reach — "tamper only a randomly selected specific
// local stack location"), while ArbitraryWrite can hit any data object
// (what a format-string vulnerability allows).
package attack

import (
	"math/rand"

	"repro/internal/ipds"
	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/internal/vm"
)

// Model selects which memory an attack can corrupt.
type Model int

// Attack models.
const (
	// Overflow tampers local stack data only (buffer overflow class).
	Overflow Model = iota
	// ArbitraryWrite tampers any global or active local (format
	// string class).
	ArbitraryWrite
)

func (m Model) String() string {
	if m == Overflow {
		return "buffer overflow"
	}
	return "format string"
}

// Outcome classifies one attack.
type Outcome int

// Attack outcomes.
const (
	// NoEffect: the tampering did not change control flow. Schemes
	// monitoring control flow (including the paper's) cannot see it.
	NoEffect Outcome = iota
	// Detected: control flow changed and the IPDS raised an alarm.
	Detected
	// Missed: control flow changed but no alarm was raised.
	Missed
)

func (o Outcome) String() string {
	switch o {
	case NoEffect:
		return "no-cf-change"
	case Detected:
		return "detected"
	case Missed:
		return "missed"
	}
	return "?"
}

// Timing selects when in the victim's execution the tampering lands.
type Timing int

// Tamper timings.
const (
	// AtInput corrupts memory immediately after a randomly chosen
	// input-consuming call (read_line and friends): memory corruption
	// through overflows and format strings happens while the program
	// processes attacker-supplied input. The default.
	AtInput Timing = iota
	// AtAnyStep corrupts memory at a uniformly random dynamic
	// instruction.
	AtAnyStep
)

func (tm Timing) String() string {
	if tm == AtInput {
		return "at-input"
	}
	return "any-step"
}

// Trial records one attack.
type Trial struct {
	Seed     int64
	Step     uint64 // dynamic step at which memory was tampered
	Victim   ir.ObjID
	Offset   uint64 // byte offset within the victim (arrays)
	Value    int64
	Outcome  Outcome
	Faulted  bool // the tampered run crashed (wild pointer etc.)
	AlarmSeq uint64
}

// Result aggregates a campaign.
type Result struct {
	Program   string
	Model     Model
	Trials    []Trial
	CFChanged int // tamperings that changed control flow
	Detected  int // tamperings detected by IPDS
}

// CFChangeRate returns the fraction of attacks that changed control
// flow (Figure 7's first bar).
func (r *Result) CFChangeRate() float64 {
	if len(r.Trials) == 0 {
		return 0
	}
	return float64(r.CFChanged) / float64(len(r.Trials))
}

// DetectionRate returns the fraction of all attacks detected (Figure
// 7's second bar).
func (r *Result) DetectionRate() float64 {
	if len(r.Trials) == 0 {
		return 0
	}
	return float64(r.Detected) / float64(len(r.Trials))
}

// ConditionalDetectionRate returns detected / cf-changed: how many of
// the attacks the scheme could possibly see were actually caught (the
// paper's 59.3% headline).
func (r *Result) ConditionalDetectionRate() float64 {
	if r.CFChanged == 0 {
		return 0
	}
	return float64(r.Detected) / float64(r.CFChanged)
}

// Campaign configures a set of independent attacks on one program.
type Campaign struct {
	Name      string // program name for reporting
	Artifacts *pipeline.Artifacts
	Input     []string // session driving the program
	Model     Model
	Timing    Timing // when tampering lands (default AtInput)
	Attacks   int
	Seed      int64
	VMConfig  vm.Config
	IPDS      ipds.Config
}

// golden captures the reference run.
type golden struct {
	res    vm.Result
	inputs uint64 // input-consuming calls observed
}

// isInputCall reports whether the instruction consumes session input.
func isInputCall(in *ir.Instr) bool {
	if in.Op != ir.OpCall {
		return false
	}
	switch in.Callee {
	case "read_line", "read_line_n", "read_int":
		return true
	}
	return false
}

// Run executes the campaign: one clean golden run, then Attacks
// independent tampered runs, each compared against the golden control
// flow.
func (c *Campaign) Run() *Result {
	cfg := c.VMConfig
	if cfg.MemSize == 0 {
		cfg = vm.DefaultConfig
	}
	cfg.RecordBranches = true
	ic := c.IPDS
	if ic == (ipds.Config{}) {
		ic = ipds.DefaultConfig
	}

	// Golden run (also sanity-checks zero false positives): any alarm on
	// an untampered run violates the scheme's core guarantee, so make it
	// loud the instant it fires.
	gv := vm.New(c.Artifacts.Prog, cfg, c.Input)
	gm := ipds.New(c.Artifacts.Image, ic)
	ipds.Attach(gv, gm, func(a ipds.Alarm) {
		panic("attack: false positive on untampered golden run: " + a.String())
	})
	var g golden
	gv.AddHooks(vm.Hooks{OnInstr: func(in *ir.Instr, addr uint64, size int) {
		if isInputCall(in) {
			g.inputs++
		}
	}})
	g.res = gv.Run()

	out := &Result{Program: c.Name, Model: c.Model}
	rng := rand.New(rand.NewSource(c.Seed))
	for i := 0; i < c.Attacks; i++ {
		trial := c.runOne(rng.Int63(), cfg, ic, &g)
		out.Trials = append(out.Trials, trial)
		if trial.Outcome != NoEffect {
			out.CFChanged++
		}
		if trial.Outcome == Detected {
			out.Detected++
		}
	}
	return out
}

func (c *Campaign) runOne(seed int64, cfg vm.Config, ic ipds.Config, g *golden) Trial {
	rng := rand.New(rand.NewSource(seed))
	trial := Trial{Seed: seed}
	if g.res.Steps < 4 {
		return trial
	}

	v := vm.New(c.Artifacts.Prog, cfg, c.Input)
	m := ipds.New(c.Artifacts.Image, ic)
	// The first alarm decides the trial.
	var firstAlarm *ipds.Alarm
	ipds.Attach(v, m, func(a ipds.Alarm) {
		if firstAlarm == nil {
			firstAlarm = &a
		}
	})

	prog := c.Artifacts.Prog
	tampered := false
	tamper := func(step uint64) {
		tampered = true
		trial.Step = step
		victims := v.ActiveObjects(c.Model == Overflow)
		if len(victims) == 0 {
			return
		}
		id := victims[rng.Intn(len(victims))]
		obj := prog.Object(id)
		addr, ok := v.AddrOfObj(id)
		if !ok {
			return
		}
		trial.Victim = id
		size := 8
		if obj.IsScalar() {
			size = obj.Size()
			// A write that leaves the value unchanged is not a
			// tampering; always write something different. Half the
			// time flip within the flag/enum range (non-control-data
			// attacks write meaningful values — Figure 1's attacker
			// writes "admin", not garbage), half the time garbage.
			cur, _ := v.Peek(addr, size)
			if rng.Intn(2) == 0 {
				trial.Value = 1 - cur // 0<->1, n -> 1-n
			} else {
				trial.Value = rng.Int63n(1 << 16)
				if rng.Intn(2) == 0 {
					trial.Value = -trial.Value
				}
			}
			if trial.Value == cur {
				trial.Value = cur + 1 + rng.Int63n(9)
			}
		} else {
			// Arrays: corrupt one word-sized location (the paper
			// tampers "a (randomly selected) specific local stack
			// location" — a machine word, as a single overflowed store
			// would).
			words := (obj.Size() + 7) / 8
			trial.Offset = uint64(rng.Intn(words)) * 8
			addr += trial.Offset
			remain := obj.Size() - int(trial.Offset)
			trial.Value = rng.Int63()
			if remain >= 8 {
				_ = v.Poke(addr, trial.Value, 8)
				return
			}
			for b := 0; b < remain; b++ {
				_ = v.Poke(addr+uint64(b), (trial.Value>>(8*uint(b)))&0xff, 1)
			}
			return
		}
		_ = v.Poke(addr, trial.Value, size)
	}

	if c.Timing == AtInput && g.inputs > 0 {
		// Tamper right after the k-th input-consuming call completes
		// (OnInstr fires before the call executes; arming and poking
		// from the post-step hook lands the corruption after the fresh
		// input was written, like a real overflow during the copy).
		target := 1 + uint64(rng.Int63n(int64(g.inputs)))
		var seen uint64
		armed := false
		v.AddHooks(vm.Hooks{
			OnInstr: func(in *ir.Instr, addr uint64, size int) {
				if tampered || armed || !isInputCall(in) {
					return
				}
				seen++
				if seen == target {
					armed = true
				}
			},
			OnStep: func(s uint64) {
				if armed && !tampered {
					tamper(s)
				}
			},
		})
	} else {
		// Uniformly random dynamic step inside the golden execution.
		step := 1 + uint64(rng.Int63n(int64(g.res.Steps-2)))
		v.AddHooks(vm.Hooks{OnStep: func(s uint64) {
			if !tampered && s == step {
				tamper(s)
			}
		}})
	}

	res := v.Run()
	trial.Faulted = res.Status == vm.Faulted

	changed := controlFlowChanged(g.res, res)
	switch {
	case !changed:
		trial.Outcome = NoEffect
	case firstAlarm != nil:
		trial.Outcome = Detected
		trial.AlarmSeq = firstAlarm.Seq
	default:
		trial.Outcome = Missed
	}
	return trial
}

// controlFlowChanged compares a tampered run against the golden run.
// Any divergence in the committed-branch stream, termination status or
// exit code counts as a control-flow change.
func controlFlowChanged(g, a vm.Result) bool {
	if g.Status != a.Status || g.ExitCode != a.ExitCode {
		return true
	}
	if len(g.Branches) != len(a.Branches) {
		return true
	}
	for i := range g.Branches {
		if g.Branches[i] != a.Branches[i] {
			return true
		}
	}
	return false
}
