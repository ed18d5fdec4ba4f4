package vm

import "repro/internal/ir"

// Layout fixes the data-memory addresses of a program: globals and
// string constants get static addresses; locals and parameters get
// offsets within their function's stack frame. Frames are laid out in
// declaration order at ascending addresses, so an unbounded copy into a
// buffer overruns into the variables declared after it — the classic
// stack-overflow behaviour the paper's attacks rely on (Figure 1).
type Layout struct {
	// staticAddr is the absolute address of globals and strings
	// (0 for frame-resident objects).
	staticAddr []uint64
	// frameOff is the offset of locals/params inside their frame.
	frameOff []uint64

	frameSize  map[*ir.Func]uint64
	globalBase uint64
	globalEnd  uint64
	stackBase  uint64
}

func align(v uint64, a uint64) uint64 { return (v + a - 1) &^ (a - 1) }

func objAlign(o *ir.Object) uint64 {
	if o.Kind == ir.ObjString {
		return 1
	}
	if o.Type.Size() == 1 {
		return 1
	}
	return 8
}

// NewLayout computes the memory layout for prog.
func NewLayout(prog *ir.Program, globalBase, stackBase uint64) *Layout {
	l := &Layout{
		staticAddr: make([]uint64, len(prog.Objects)),
		frameOff:   make([]uint64, len(prog.Objects)),
		frameSize:  map[*ir.Func]uint64{},
		globalBase: globalBase,
		stackBase:  stackBase,
	}
	addr := globalBase
	for _, o := range prog.Objects {
		if o.Kind != ir.ObjGlobal && o.Kind != ir.ObjString {
			continue
		}
		addr = align(addr, objAlign(o))
		l.staticAddr[o.ID] = addr
		addr += uint64(o.Size())
	}
	l.globalEnd = addr
	for _, fn := range prog.Funcs {
		off := uint64(0)
		place := func(id ir.ObjID) {
			o := prog.Object(id)
			off = align(off, objAlign(o))
			l.frameOff[id] = off
			off += uint64(o.Size())
		}
		for _, id := range fn.Params {
			place(id)
		}
		for _, id := range fn.Locals {
			place(id)
		}
		l.frameSize[fn] = align(off, 8)
	}
	return l
}

// FrameSize returns the frame size of fn in bytes.
func (l *Layout) FrameSize(fn *ir.Func) uint64 { return l.frameSize[fn] }

// GlobalEnd returns the first address past the static data segment.
func (l *Layout) GlobalEnd() uint64 { return l.globalEnd }
