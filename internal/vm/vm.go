// Package vm executes lowered IR programs over a flat byte-addressed
// memory, replacing the paper's Bochs/Linux execution substrate. The
// interpreter exposes hooks for every committed branch, call, return
// and executed instruction, through which the IPDS runtime, the attack
// injector and the CPU timing model observe execution without the VM
// depending on any of them.
package vm

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/ir"
)

// Config parameterises a VM instance.
type Config struct {
	MemSize    uint64 // total data memory, bytes
	GlobalBase uint64 // static segment base
	StackBase  uint64 // initial stack pointer (stack grows down)
	MaxSteps   uint64 // instruction budget (0 = default)

	// RecordBranches keeps the full branch trace in Result.Branches
	// (needed by the attack experiments; off for pure timing runs).
	RecordBranches bool
}

// DefaultConfig is a 1 MiB machine with a generous step budget.
var DefaultConfig = Config{
	MemSize:        1 << 20,
	GlobalBase:     0x10000,
	StackBase:      1 << 20,
	MaxSteps:       50_000_000,
	RecordBranches: true,
}

// Hooks are observation points. Any field may be nil.
type Hooks struct {
	// OnBranch fires after a conditional branch resolves.
	OnBranch func(br *ir.Instr, taken bool)
	// OnCall fires after a user-function frame is pushed.
	OnCall func(fn *ir.Func)
	// OnRet fires before a user-function frame is popped.
	OnRet func(fn *ir.Func)
	// OnInstr fires before each instruction executes; addr/size are
	// meaningful for loads and stores (post address computation).
	OnInstr func(in *ir.Instr, addr uint64, size int)
	// OnStep fires once per executed instruction with the global step
	// counter, after the instruction completes. The attack injector
	// uses it to tamper memory at a chosen dynamic point.
	OnStep func(step uint64)
}

// BranchEvent is one dynamic conditional-branch outcome.
type BranchEvent struct {
	PC    uint64
	Taken bool
}

// Status describes how a run ended.
type Status int

// Run statuses.
const (
	Exited    Status = iota // main returned or exit_prog called
	Faulted                 // memory fault, division by zero, etc.
	StepLimit               // ran out of instruction budget
)

func (s Status) String() string {
	switch s {
	case Exited:
		return "exited"
	case Faulted:
		return "faulted"
	case StepLimit:
		return "step-limit"
	}
	return "?"
}

// Result summarises a run.
type Result struct {
	Status   Status
	ExitCode int64
	Fault    error
	Steps    uint64
	Output   []string
	Branches []BranchEvent
}

// Fault errors.
var (
	ErrOOB       = errors.New("memory access out of bounds")
	ErrNull      = errors.New("null-page access")
	ErrReadOnly  = errors.New("write to read-only memory")
	ErrDivZero   = errors.New("division by zero")
	ErrStack     = errors.New("stack overflow")
	ErrNoMain    = errors.New("program has no main function")
	ErrCallDepth = errors.New("call depth exceeded")
)

type frame struct {
	fn     *ir.Func
	blk    *ir.Block
	idx    int
	regs   []int64
	args   []int64
	base   uint64 // frame base address
	retDst ir.Reg // caller register receiving the return value
}

// VM is an interpreter instance. A VM is single-run: create a new one
// (or call Reset) per execution.
type VM struct {
	prog   *ir.Program
	layout *Layout
	cfg    Config
	Hooks  Hooks

	mem    []byte
	sp     uint64
	frames []frame

	input  []string
	inPos  int
	output []string
	outBuf []byte

	steps    uint64
	branches []BranchEvent
	roRanges [][2]uint64 // read-only segments (string constants)

	done   bool
	status Status
	exit   int64
	fault  error
}

const nullBoundary = 0x1000

// MaxCallDepth bounds a run's call stack: a call that would push frame
// MaxCallDepth+1 faults with ErrCallDepth. One run's event stream
// therefore never nests deeper, and a captured stream is closed at its
// end (ipdsclient.Tracer), so looping it on one session does not
// either. The verification daemon ends a session whose table stack
// exceeds it (internal/server).
const MaxCallDepth = 512

// New creates a VM for prog with the given input lines.
func New(prog *ir.Program, cfg Config, input []string) *VM {
	if cfg.MemSize == 0 {
		cfg = DefaultConfig
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = DefaultConfig.MaxSteps
	}
	v := &VM{
		prog:   prog,
		layout: NewLayout(prog, cfg.GlobalBase, cfg.StackBase),
		cfg:    cfg,
		mem:    make([]byte, cfg.MemSize),
		sp:     cfg.StackBase,
		input:  input,
	}
	v.initStatics()
	// Machine-model assumption 3 of the paper: statically defined
	// constants are mapped read-only and the processor enforces it.
	for _, o := range prog.Objects {
		if o.Kind == ir.ObjString {
			base := v.layout.staticAddr[o.ID]
			v.roRanges = append(v.roRanges, [2]uint64{base, base + uint64(o.Size())})
		}
	}
	return v
}

// readOnly reports whether a program write to [addr, addr+size) lands
// in read-only memory.
func (v *VM) readOnly(addr uint64, size int) bool {
	end := addr + uint64(size)
	for _, r := range v.roRanges {
		if addr < r[1] && end > r[0] {
			return true
		}
	}
	return false
}

// Layout exposes the address layout (used by the attack injector to
// pick tamper victims).
func (v *VM) Layout() *Layout { return v.layout }

// Prog returns the program under execution.
func (v *VM) Prog() *ir.Program { return v.prog }

func (v *VM) initStatics() {
	for _, o := range v.prog.Objects {
		switch o.Kind {
		case ir.ObjGlobal:
			addr := v.layout.staticAddr[o.ID]
			if o.Type.IsScalar() {
				v.writeRaw(addr, o.Init, o.Type.Size())
			}
		case ir.ObjString:
			copy(v.mem[v.layout.staticAddr[o.ID]:], o.Data)
		}
	}
}

// Start prepares execution: it pushes main's frame and fires the entry
// hook. Use it with Step for externally driven execution (e.g. the
// context-switch experiments); Run calls it implicitly.
func (v *VM) Start() error {
	main := v.prog.ByName["main"]
	if main == nil {
		v.done = true
		v.status = Faulted
		v.fault = ErrNoMain
		return ErrNoMain
	}
	v.pushFrame(main, nil, ir.NoReg)
	if v.Hooks.OnCall != nil {
		v.Hooks.OnCall(main)
	}
	return nil
}

// Done reports whether execution has ended.
func (v *VM) Done() bool { return v.done }

// Result snapshots the run outcome; complete once Done reports true.
func (v *VM) Result() Result {
	return Result{
		Status:   v.status,
		ExitCode: v.exit,
		Fault:    v.fault,
		Steps:    v.steps,
		Output:   v.output,
		Branches: v.branches,
	}
}

// Run executes main to completion.
func (v *VM) Run() Result {
	if err := v.Start(); err != nil {
		return v.Result()
	}
	for !v.done {
		v.Step()
	}
	return v.Result()
}

func (v *VM) failf(err error, format string, args ...any) {
	v.done = true
	v.status = Faulted
	v.fault = fmt.Errorf("%w: %s (step %d)", err, fmt.Sprintf(format, args...), v.steps)
}

func (v *VM) finish(code int64) {
	v.done = true
	v.status = Exited
	v.exit = code
	v.flushOut()
}

func (v *VM) pushFrame(fn *ir.Func, args []int64, retDst ir.Reg) {
	if len(v.frames) >= MaxCallDepth {
		v.failf(ErrCallDepth, "calling %s", fn.Name)
		return
	}
	size := v.layout.FrameSize(fn)
	if v.sp < size || v.sp-size < v.layout.GlobalEnd() {
		v.failf(ErrStack, "frame for %s", fn.Name)
		return
	}
	v.sp -= size
	base := v.sp
	// Zero the frame for deterministic uninitialised reads.
	for i := uint64(0); i < size; i++ {
		v.mem[base+i] = 0
	}
	v.frames = append(v.frames, frame{
		fn:     fn,
		blk:    fn.Entry,
		idx:    0,
		regs:   make([]int64, fn.NumRegs),
		args:   args,
		base:   base,
		retDst: retDst,
	})
}

func (v *VM) popFrame(ret int64) {
	top := v.frames[len(v.frames)-1]
	if v.Hooks.OnRet != nil {
		v.Hooks.OnRet(top.fn)
	}
	v.sp += v.layout.FrameSize(top.fn)
	v.frames = v.frames[:len(v.frames)-1]
	if len(v.frames) == 0 {
		v.finish(ret)
		return
	}
	caller := &v.frames[len(v.frames)-1]
	if top.retDst != ir.NoReg {
		caller.regs[top.retDst] = ret
	}
}

// objAddr resolves a direct object reference against the current frame.
func (v *VM) objAddr(id ir.ObjID) uint64 {
	o := v.prog.Object(id)
	if o.Kind == ir.ObjGlobal || o.Kind == ir.ObjString {
		return v.layout.staticAddr[id]
	}
	f := &v.frames[len(v.frames)-1]
	return f.base + v.layout.frameOff[id]
}

// AddrOfObj resolves an object to its current address: statics always,
// frame objects against the topmost activation of their owning
// function. ok is false when the function is not on the call stack.
func (v *VM) AddrOfObj(id ir.ObjID) (uint64, bool) {
	o := v.prog.Object(id)
	if o.Kind == ir.ObjGlobal || o.Kind == ir.ObjString {
		return v.layout.staticAddr[id], true
	}
	for i := len(v.frames) - 1; i >= 0; i-- {
		if v.frames[i].fn == o.Fn {
			return v.frames[i].base + v.layout.frameOff[id], true
		}
	}
	return 0, false
}

// ActiveObjects returns the memory-resident data objects currently
// addressable: all globals plus the locals and parameters of every
// frame on the call stack. The attack injector samples its tamper
// victims from this set. stackOnly restricts the set to frame-resident
// objects (the buffer-overflow attack model, which can only reach local
// stack data).
func (v *VM) ActiveObjects(stackOnly bool) []ir.ObjID {
	var out []ir.ObjID
	if !stackOnly {
		for _, o := range v.prog.Objects {
			if o.Kind == ir.ObjGlobal {
				out = append(out, o.ID)
			}
		}
	}
	for i := range v.frames {
		fn := v.frames[i].fn
		out = append(out, fn.Params...)
		out = append(out, fn.Locals...)
	}
	return out
}

func (v *VM) checkAddr(addr uint64, size int) bool {
	if addr < nullBoundary {
		v.failf(ErrNull, "address %#x", addr)
		return false
	}
	if addr+uint64(size) > uint64(len(v.mem)) {
		v.failf(ErrOOB, "address %#x size %d", addr, size)
		return false
	}
	return true
}

func (v *VM) writeRaw(addr uint64, val int64, size int) {
	if size == 1 {
		v.mem[addr] = byte(val)
		return
	}
	binary.LittleEndian.PutUint64(v.mem[addr:], uint64(val))
}

func (v *VM) readRaw(addr uint64, size int) int64 {
	if size == 1 {
		return int64(v.mem[addr])
	}
	return int64(binary.LittleEndian.Uint64(v.mem[addr:]))
}

// Poke writes a value directly into memory, bypassing program
// semantics: the attack injector's memory-tampering primitive.
func (v *VM) Poke(addr uint64, val int64, size int) error {
	if addr+uint64(size) > uint64(len(v.mem)) {
		return ErrOOB
	}
	v.writeRaw(addr, val, size)
	return nil
}

// Peek reads memory directly (diagnostics and attack setup).
func (v *VM) Peek(addr uint64, size int) (int64, error) {
	if addr+uint64(size) > uint64(len(v.mem)) {
		return 0, ErrOOB
	}
	return v.readRaw(addr, size), nil
}

// Step executes one instruction.
func (v *VM) Step() {
	if v.done {
		return
	}
	if v.steps >= v.cfg.MaxSteps {
		v.done = true
		v.status = StepLimit
		v.flushOut()
		return
	}
	f := &v.frames[len(v.frames)-1]
	in := f.blk.Instrs[f.idx]
	v.steps++
	f.idx++ // default fallthrough; control-flow ops overwrite

	switch in.Op {
	case ir.OpConst:
		f.regs[in.Dst] = in.Imm
	case ir.OpMov:
		f.regs[in.Dst] = f.regs[in.A]
	case ir.OpParam:
		if int(in.Imm) < len(f.args) {
			f.regs[in.Dst] = f.args[in.Imm]
		}
	case ir.OpAdd:
		f.regs[in.Dst] = f.regs[in.A] + f.regs[in.B]
	case ir.OpSub:
		f.regs[in.Dst] = f.regs[in.A] - f.regs[in.B]
	case ir.OpMul:
		f.regs[in.Dst] = f.regs[in.A] * f.regs[in.B]
	case ir.OpDiv:
		if f.regs[in.B] == 0 {
			v.failf(ErrDivZero, "at %#x", in.PC)
			return
		}
		f.regs[in.Dst] = f.regs[in.A] / f.regs[in.B]
	case ir.OpRem:
		if f.regs[in.B] == 0 {
			v.failf(ErrDivZero, "at %#x", in.PC)
			return
		}
		f.regs[in.Dst] = f.regs[in.A] % f.regs[in.B]
	case ir.OpAnd:
		f.regs[in.Dst] = f.regs[in.A] & f.regs[in.B]
	case ir.OpOr:
		f.regs[in.Dst] = f.regs[in.A] | f.regs[in.B]
	case ir.OpXor:
		f.regs[in.Dst] = f.regs[in.A] ^ f.regs[in.B]
	case ir.OpShl:
		f.regs[in.Dst] = f.regs[in.A] << (uint64(f.regs[in.B]) & 63)
	case ir.OpShr:
		f.regs[in.Dst] = f.regs[in.A] >> (uint64(f.regs[in.B]) & 63)
	case ir.OpNeg:
		f.regs[in.Dst] = -f.regs[in.A]
	case ir.OpBNot:
		f.regs[in.Dst] = ^f.regs[in.A]
	case ir.OpSet:
		if in.Cond.Eval(f.regs[in.A], f.regs[in.B]) {
			f.regs[in.Dst] = 1
		} else {
			f.regs[in.Dst] = 0
		}
	case ir.OpAddr:
		f.regs[in.Dst] = int64(v.objAddr(in.Obj)) + in.Imm
	case ir.OpLoad:
		addr := v.accessAddr(f, in)
		if v.done {
			return
		}
		if v.Hooks.OnInstr != nil {
			v.Hooks.OnInstr(in, addr, in.Size)
		}
		if !v.checkAddr(addr, in.Size) {
			return
		}
		f.regs[in.Dst] = v.readRaw(addr, in.Size)
		v.afterStep()
		return
	case ir.OpStore:
		addr := v.accessAddr(f, in)
		if v.done {
			return
		}
		if v.Hooks.OnInstr != nil {
			v.Hooks.OnInstr(in, addr, in.Size)
		}
		if !v.checkAddr(addr, in.Size) {
			return
		}
		if v.readOnly(addr, in.Size) {
			v.failf(ErrReadOnly, "store to %#x", addr)
			return
		}
		v.writeRaw(addr, f.regs[in.B], in.Size)
		v.afterStep()
		return
	case ir.OpCall:
		if v.Hooks.OnInstr != nil {
			v.Hooks.OnInstr(in, 0, 0)
		}
		v.execCall(f, in)
		v.afterStep()
		return
	case ir.OpRet:
		ret := int64(0)
		if in.A != ir.NoReg {
			ret = f.regs[in.A]
		}
		if v.Hooks.OnInstr != nil {
			v.Hooks.OnInstr(in, 0, 0)
		}
		v.popFrame(ret)
		v.afterStep()
		return
	case ir.OpJmp:
		if v.Hooks.OnInstr != nil {
			v.Hooks.OnInstr(in, 0, 0)
		}
		f.blk = in.Target
		f.idx = 0
		v.afterStep()
		return
	case ir.OpBr:
		taken := in.Cond.Eval(f.regs[in.A], f.regs[in.B])
		if v.Hooks.OnInstr != nil {
			v.Hooks.OnInstr(in, 0, 0)
		}
		if v.cfg.RecordBranches {
			v.branches = append(v.branches, BranchEvent{PC: in.PC, Taken: taken})
		}
		if v.Hooks.OnBranch != nil {
			v.Hooks.OnBranch(in, taken)
		}
		if taken {
			f.blk = in.Target
		} else {
			f.blk = in.Else
		}
		f.idx = 0
		v.afterStep()
		return
	}
	if v.Hooks.OnInstr != nil {
		v.Hooks.OnInstr(in, 0, 0)
	}
	v.afterStep()
}

func (v *VM) afterStep() {
	if v.Hooks.OnStep != nil && !v.done {
		v.Hooks.OnStep(v.steps)
	}
}

// accessAddr computes the effective address of a load/store.
func (v *VM) accessAddr(f *frame, in *ir.Instr) uint64 {
	if in.IsDirectAccess() {
		return v.objAddr(in.Obj)
	}
	return uint64(f.regs[in.A])
}

func (v *VM) execCall(f *frame, in *ir.Instr) {
	args := make([]int64, len(in.Args))
	for i, r := range in.Args {
		args[i] = f.regs[r]
	}
	if fn := v.prog.ByName[in.Callee]; fn != nil {
		v.pushFrame(fn, args, in.Dst)
		if !v.done && v.Hooks.OnCall != nil {
			v.Hooks.OnCall(fn)
		}
		return
	}
	ret, err := v.callBuiltin(in.Callee, args)
	if err != nil {
		v.failf(err, "builtin %s", in.Callee)
		return
	}
	if in.Dst != ir.NoReg {
		f.regs[in.Dst] = ret
	}
}

// Steps returns the executed instruction count so far.
func (v *VM) Steps() uint64 { return v.steps }

// Output returns the lines printed so far (plus any unterminated tail).
func (v *VM) Output() []string {
	v.flushOut()
	return v.output
}
