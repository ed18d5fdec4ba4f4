package ranges

import "repro/internal/ir"

// FromCond returns the set of x for which `x cond k` has the given
// outcome.
func FromCond(cond ir.Cond, k int64, taken bool) Range {
	if !taken {
		cond = cond.Negate()
	}
	switch cond {
	case ir.CondEq:
		return Point(k)
	case ir.CondNe:
		return NotEqual(k)
	case ir.CondLt:
		if k == -1<<63 {
			return EmptyRange()
		}
		return AtMost(k - 1)
	case ir.CondLe:
		return AtMost(k)
	case ir.CondGt:
		if k == 1<<63-1 {
			return EmptyRange()
		}
		return AtLeast(k + 1)
	case ir.CondGe:
		return AtLeast(k)
	}
	return Full()
}

// Affine describes a register value as ±root + offset, where root is
// the value produced by the Root instruction (typically a load). The
// decomposition walks the unique def chain that single-assignment
// registers guarantee.
type Affine struct {
	Root   *ir.Instr
	Neg    bool
	Offset int64
}

// Decompose resolves register r in f to an affine form. It follows
// moves, negation, and additions/subtractions with constant operands,
// stopping at the first "opaque" producer (load, call, param, set, ...).
// ok is false when the chain uses non-affine arithmetic or overflows.
//
// The walk maintains the invariant value = sign·x + Offset, where x is
// the value of the register currently being chased.
func Decompose(f *ir.Func, r ir.Reg) (Affine, bool) {
	var aff Affine
	for range f.Instrs { // bounded walk; def chains are acyclic
		def := f.DefOf(r)
		if def == nil {
			return aff, false
		}
		switch def.Op {
		case ir.OpMov:
			r = def.A
		case ir.OpNeg:
			// x = -y: sign flips, offset unchanged.
			aff.Neg = !aff.Neg
			r = def.A
		case ir.OpAdd:
			// x = y + c: value = sign·y + (Offset + sign·c).
			if c, ok := ConstValue(f, def.B); ok {
				if !aff.accumulate(c) {
					return aff, false
				}
				r = def.A
				continue
			}
			if c, ok := ConstValue(f, def.A); ok {
				if !aff.accumulate(c) {
					return aff, false
				}
				r = def.B
				continue
			}
			return aff, false
		case ir.OpSub:
			// x = y - c: value = sign·y + (Offset - sign·c).
			if c, ok := ConstValue(f, def.B); ok {
				if c == -1<<63 || !aff.accumulate(-c) {
					return aff, false
				}
				r = def.A
				continue
			}
			// x = c - y: offset gains sign·c, then sign flips.
			if c, ok := ConstValue(f, def.A); ok {
				if !aff.accumulate(c) {
					return aff, false
				}
				aff.Neg = !aff.Neg
				r = def.B
				continue
			}
			return aff, false
		default:
			aff.Root = def
			return aff, true
		}
	}
	return aff, false
}

// accumulate adds sign·c to the affine's offset, failing on overflow.
func (a *Affine) accumulate(c int64) bool {
	if a.Neg {
		if c == -1<<63 {
			return false
		}
		c = -c
	}
	s, ok := addSat(a.Offset, c)
	if !ok {
		return false
	}
	a.Offset = s
	return true
}

// Apply maps a range of the root value to the range of the affine value
// (value = ±root + offset).
func (a Affine) Apply(root Range) Range {
	if a.Neg {
		root = root.Neg()
	}
	return root.Shift(a.Offset)
}

// Invert maps a range of the affine value back to the range of the root
// value.
func (a Affine) Invert(value Range) Range {
	r := value.Shift(-a.Offset)
	if a.Neg {
		r = r.Neg()
	}
	return r
}

// SameRoot reports whether two affine forms share a root instruction.
func (a Affine) SameRoot(b Affine) bool { return a.Root != nil && a.Root == b.Root }

// ConstValue resolves register r to a compile-time constant, following
// moves.
func ConstValue(f *ir.Func, r ir.Reg) (int64, bool) {
	for range f.Instrs {
		def := f.DefOf(r)
		if def == nil {
			return 0, false
		}
		switch def.Op {
		case ir.OpConst:
			return def.Imm, true
		case ir.OpMov:
			r = def.A
		default:
			return 0, false
		}
	}
	return 0, false
}

// Constraint is the range view of a conditional branch: the branch
// compares an affine function of Root's value against a constant, so
// each direction confines the root value to a range.
type Constraint struct {
	Branch *ir.Instr
	Aff    Affine
	Taken  Range // root value range when the branch is taken
	Not    Range // root value range when it is not taken
}

// RootRange returns the root-value range for a direction (taken=true
// for the taken edge).
func (c Constraint) RootRange(taken bool) Range {
	if taken {
		return c.Taken
	}
	return c.Not
}

// BranchConstraint analyses a conditional branch `A cond B`. It
// succeeds when one side is affine in some root value and the other is
// constant, possibly after unwrapping a comparison materialised by
// OpSet (`br (a<b) != 0` is rewritten to `br a<b`).
func BranchConstraint(f *ir.Func, br *ir.Instr) (Constraint, bool) {
	if br.Op != ir.OpBr {
		return Constraint{}, false
	}
	cond, a, b := br.Cond, br.A, br.B
	flip := false

	// Unwrap `set` producers: br (x cond2 y) != 0  ==  br x cond2 y.
	for {
		ca, aOK := ConstValue(f, a)
		cb, bOK := ConstValue(f, b)
		var setSide ir.Reg
		var zeroOther bool
		switch {
		case bOK && cb == 0:
			setSide, zeroOther = a, true
		case aOK && ca == 0:
			// Eq/Ne are symmetric: no swap. Any other cond breaks out
			// below and must reach the constant/affine split unswapped.
			setSide, zeroOther = b, true
		}
		if !zeroOther || (cond != ir.CondNe && cond != ir.CondEq) {
			break
		}
		def := chaseMov(f, setSide)
		if def == nil || def.Op != ir.OpSet {
			break
		}
		// set yields 1 when its condition holds; != 0 keeps polarity,
		// == 0 inverts it.
		if cond == ir.CondEq {
			flip = !flip
		}
		cond, a, b = def.Cond, def.A, def.B
	}

	if k, ok := ConstValue(f, b); ok {
		if aff, ok := Decompose(f, a); ok {
			return makeConstraint(br, aff, cond, k, flip), true
		}
		return Constraint{}, false
	}
	if k, ok := ConstValue(f, a); ok {
		if aff, ok := Decompose(f, b); ok {
			return makeConstraint(br, aff, cond.Swap(), k, flip), true
		}
	}
	return Constraint{}, false
}

func makeConstraint(br *ir.Instr, aff Affine, cond ir.Cond, k int64, flip bool) Constraint {
	taken := FromCond(cond, k, !flip)
	not := FromCond(cond, k, flip)
	return Constraint{
		Branch: br,
		Aff:    aff,
		Taken:  aff.Invert(taken),
		Not:    aff.Invert(not),
	}
}

func chaseMov(f *ir.Func, r ir.Reg) *ir.Instr {
	for range f.Instrs {
		def := f.DefOf(r)
		if def == nil {
			return nil
		}
		if def.Op != ir.OpMov {
			return def
		}
		r = def.A
	}
	return nil
}
