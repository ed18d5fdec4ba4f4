// Package hashfn implements the paper's collision-free branch-PC
// hashing (§5.2): a parameterisable hash built from shifts and XORs
// that the compiler tunes per function by trial and error so that no
// two branch PCs of the function collide. A collision-free hash lets
// the runtime tables omit tags entirely, which is where the small BSV
// and BCV sizes of Figure 8 come from.
package hashfn

import "fmt"

// Params is a chosen hash parameterisation. The hash operates on
// function-relative instruction indices ((pc-base)>>2) so slot counts
// track function size rather than absolute code addresses:
//
//	h(pc) = (x ^ x>>S1 ^ x>>S2) & (2^SizeLog2 - 1),  x = (pc-base)>>2
type Params struct {
	S1, S2   uint8
	SizeLog2 uint8
}

// Slots returns the hash space size.
func (p Params) Slots() int { return 1 << p.SizeLog2 }

// Slot maps a branch PC to its table slot. Shift counts are masked to
// 6 bits, as the runtime kernel masks them: a no-op for every shift in
// the search space [1, MaxShift], and the table decoder refuses any
// other, so compiler, decoder and kernel agree on every slot.
func (p Params) Slot(base, pc uint64) int {
	x := (pc - base) >> 2
	h := x ^ (x >> (p.S1 & 63)) ^ (x >> (p.S2 & 63))
	return int(h & uint64(p.Slots()-1))
}

// MaxSizeLog2 caps the hash space Find sizes a function's tables to.
// The table decoder refuses images above it, so encoder and decoder
// share one ceiling (and packed BAT targets fit the baked 30-bit field).
const MaxSizeLog2 = 30

// MaxShift bounds the shift search space [1, MaxShift]; large shifts
// make the shifted term vanish for realistic code sizes, so the space
// always contains near-identity hashes. The table decoder refuses
// shifts outside it.
const MaxShift = 14

// Find searches for collision-free parameters for the given branch PCs
// (all within one function starting at base). It first tries the
// optimally sized hash space and enlarges it only when every shift
// combination collides, mirroring the compiler strategy in the paper.
// minLog2 lets callers impose a floor (0 for none).
func Find(base uint64, pcs []uint64, minLog2 uint8) (Params, error) {
	if len(pcs) == 0 {
		return Params{S1: 1, S2: 2, SizeLog2: minLog2}, nil
	}
	start := log2ceil(len(pcs))
	if start < minLog2 {
		start = minLog2
	}
	used := make(map[int]uint64, len(pcs))
	for size := start; size <= MaxSizeLog2; size++ {
		for s1 := uint8(1); s1 <= MaxShift; s1++ {
			for s2 := s1; s2 <= MaxShift; s2++ {
				p := Params{S1: s1, S2: s2, SizeLog2: size}
				if collisionFree(p, base, pcs, used) {
					return p, nil
				}
			}
		}
	}
	return Params{}, fmt.Errorf("hashfn: no collision-free hash for %d branches", len(pcs))
}

func collisionFree(p Params, base uint64, pcs []uint64, used map[int]uint64) bool {
	for k := range used {
		delete(used, k)
	}
	for _, pc := range pcs {
		s := p.Slot(base, pc)
		if prev, ok := used[s]; ok && prev != pc {
			return false
		}
		used[s] = pc
	}
	return true
}

func log2ceil(n int) uint8 {
	l := uint8(0)
	for (1 << l) < n {
		l++
	}
	return l
}
