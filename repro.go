// Package repro is the public API of the IPDS reproduction: the
// Infeasible Path Detection System from Zhuang, Zhang and Pande,
// "Using Branch Correlation to Identify Infeasible Paths for Anomaly
// Detection" (MICRO 2006), rebuilt from scratch in Go.
//
// The typical workflow mirrors the paper's toolchain:
//
//	prog, err := repro.Compile(src)       // MiniC -> IR -> BSV/BCV/BAT
//	res, err := prog.Run(inputLines)      // execute under the IPDS runtime
//	if len(res.Alarms) > 0 { ... }        // infeasible path == tampering
//
// Substrates (frontend, IR, analyses, tables, VM, CPU model, attack
// harness, the ten server workloads, and the per-figure experiment
// drivers) live under internal/; this package re-exports the pieces a
// downstream user needs to compile programs, run them guarded, launch
// tampering campaigns and time executions on the Table 1 machine.
package repro

import (
	"fmt"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/ipds"
	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/internal/tables"
	"repro/internal/vm"
)

// Options controls the compiler pipeline. Forwarding enables the
// store-to-load forwarding that exposes store→branch correlations (on
// in DefaultOptions); RegionPromotion emulates aggressive register
// allocation and exists for the ablation experiment.
type Options = ir.Options

// DefaultOptions is the paper-equivalent pipeline.
var DefaultOptions = ir.DefaultOptions

// Alarm re-exports the runtime's infeasible-path report.
type Alarm = ipds.Alarm

// AttackModel selects what memory an attack campaign may corrupt.
type AttackModel = attack.Model

// Attack models: overflows reach only stack data; arbitrary writes
// (format string class) reach any data object.
const (
	Overflow       = attack.Overflow
	ArbitraryWrite = attack.ArbitraryWrite
)

// Program is a compiled MiniC program with its IPDS tables.
type Program struct {
	art *pipeline.Artifacts
}

// Compile builds src with the default pipeline.
func Compile(src string) (*Program, error) {
	return CompileWithOptions(src, DefaultOptions)
}

// CompileWithOptions builds src with explicit pipeline options.
func CompileWithOptions(src string, opts Options) (*Program, error) {
	art, err := pipeline.Compile(src, opts)
	if err != nil {
		return nil, err
	}
	return &Program{art: art}, nil
}

// RunResult summarises a guarded execution.
type RunResult struct {
	ExitCode int64
	Output   []string
	Steps    uint64
	// Alarms holds every alarm the run raised, oldest first; the VM's
	// step budget (vm.Config.MaxSteps) bounds how many there can be.
	Alarms []Alarm

	// Faulted is set when the program crashed (memory fault, division
	// by zero); Fault carries the cause.
	Faulted bool
	Fault   error
}

// Detected reports whether the run raised at least one infeasible-path
// alarm.
func (r RunResult) Detected() bool { return len(r.Alarms) > 0 }

// Run executes the program under the IPDS runtime with the given input
// lines. A non-empty Alarms slice means the execution followed a path
// the compiler proved infeasible — the detector's tampering signal.
func (p *Program) Run(input []string) (RunResult, error) {
	v := vm.New(p.art.Prog, vm.DefaultConfig, input)
	m := ipds.New(p.art.Image, ipds.DefaultConfig)
	var alarms []Alarm
	ipds.Attach(v, m, func(a Alarm) { alarms = append(alarms, a) })
	res := v.Run()
	out := RunResult{
		ExitCode: res.ExitCode,
		Output:   res.Output,
		Steps:    res.Steps,
		Alarms:   alarms,
		Faulted:  res.Status == vm.Faulted,
		Fault:    res.Fault,
	}
	if res.Status == vm.StepLimit {
		return out, fmt.Errorf("repro: execution exceeded the step budget")
	}
	return out, nil
}

// DumpIR renders the lowered program (objects, functions, blocks).
func (p *Program) DumpIR() string { return p.art.Prog.Dump() }

// TableSizes returns the per-function average BSV/BCV/BAT sizes in
// bits (the paper's Figure 8 metric).
func (p *Program) TableSizes() tables.Stats { return p.art.Image.Sizes() }

// TableImage returns the encoded runtime tables (what the compiler
// attaches to the binary).
func (p *Program) TableImage() []byte { return p.art.Image.Marshal() }

// Correlations lists every branch correlation the compiler discovered,
// across all functions.
func (p *Program) Correlations() []core.Correlation {
	var out []core.Correlation
	for _, fn := range p.art.Prog.Funcs {
		out = append(out, p.art.Tables.Tables[fn].Correlations...)
	}
	return out
}

// CheckedBranches returns the total BCV population: how many branches
// the runtime verifies.
func (p *Program) CheckedBranches() int {
	n := 0
	for _, ft := range p.art.Tables.Tables {
		n += ft.NumChecked()
	}
	return n
}

// Attack runs n independent seeded tampering attacks against the
// program driven by input, per the paper's §6 methodology.
func (p *Program) Attack(n int, seed int64, model AttackModel, input []string) *attack.Result {
	c := &attack.Campaign{
		Artifacts: p.art,
		Input:     input,
		Model:     model,
		Attacks:   n,
		Seed:      seed,
	}
	return c.Run()
}

// MachineConfig re-exports the Table 1 processor configuration.
func MachineConfig() cpu.Config { return cpu.DefaultConfig() }

// Time runs the program on the cycle-level Table 1 machine, with or
// without the IPDS unit, and returns the timing statistics.
func (p *Program) Time(input []string, cfg cpu.Config, withIPDS bool) (cpu.Stats, error) {
	vcfg := vm.DefaultConfig
	vcfg.RecordBranches = false
	v := vm.New(p.art.Prog, vcfg, input)
	var m *ipds.Machine
	if withIPDS {
		m = ipds.New(p.art.Image, ipds.DefaultConfig)
	}
	s := cpu.New(cfg, m)
	s.Attach(v)
	res := v.Run()
	if res.Status != vm.Exited {
		return cpu.Stats{}, fmt.Errorf("repro: timing run ended %v: %v", res.Status, res.Fault)
	}
	return s.Stats(), nil
}
