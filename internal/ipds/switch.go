package ipds

import "repro/internal/tables"

// Context-switch support (§5.4): the BSV/BCV/BAT stacks and the
// detection state are per-process and must be saved and restored when
// the OS switches protected processes. The paper's optimisation:
// swap only the tops of the stacks (around 1K bits) on the critical
// path and context-switch the lower layers lazily, in parallel with
// the new process's execution; processes that are not protected need
// no save/restore at all.

// ProcessState is a suspended process's IPDS state, including the
// binding to its program's table image (different protected processes
// run different programs).
type ProcessState struct {
	img      *tables.Image
	stack    []activation
	resident int
	bsvBits  int
	bcvBits  int
	batBits  int
	stats    Stats
	seq      uint64
}

// CriticalBits returns the state that must move synchronously during
// the switch: the top-of-stack table frame (the paper's "around 1K
// bits").
func (ps *ProcessState) CriticalBits() int {
	if len(ps.stack) == 0 {
		return 0
	}
	b1, b2, b3 := ps.stack[len(ps.stack)-1].bits()
	return b1 + b2 + b3
}

// LazyBits returns the state restorable in parallel with execution:
// every non-top resident frame.
func (ps *ProcessState) LazyBits() int {
	total := 0
	for i := ps.resident; i < len(ps.stack)-1 && i >= 0; i++ {
		b1, b2, b3 := ps.stack[i].bits()
		total += b1 + b2 + b3
	}
	return total
}

// Depth returns the suspended table-stack depth.
func (ps *ProcessState) Depth() int { return len(ps.stack) }

// Stats returns the suspended process's activity counters.
func (ps *ProcessState) Stats() Stats { return ps.stats }

// Suspend captures the machine's per-process state and resets the
// machine for the next process. The returned state resumes exactly
// where it left off.
//
// The suspended state takes the activation arena with it (stack
// truncation must not share backing storage across processes), so the
// machine warms a fresh arena for the next process.
func (m *Machine) Suspend() *ProcessState {
	ps := &ProcessState{
		img:      m.img,
		stack:    m.stack,
		resident: m.resident,
		bsvBits:  m.bsvBits,
		bcvBits:  m.bcvBits,
		batBits:  m.batBits,
		stats:    m.stats,
		seq:      m.seq,
	}
	m.stack = nil
	m.resident = 0
	m.bsvBits, m.bcvBits, m.batBits = 0, 0, 0
	m.stats = Stats{}
	m.seq = 0
	m.syncGauges()
	return ps
}

// Resume installs a previously suspended process state.
func (m *Machine) Resume(ps *ProcessState) {
	m.img = ps.img
	m.stack = ps.stack
	m.resident = ps.resident
	m.bsvBits = ps.bsvBits
	m.bcvBits = ps.bcvBits
	m.batBits = ps.batBits
	m.stats = ps.stats
	m.seq = ps.seq
	m.syncGauges()
}
