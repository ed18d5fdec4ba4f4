package ipds

// Flight recorder: a fixed-size, value-typed ring of the last N
// committed events the machine processed — function entries and
// returns, every committed conditional branch with its direction, and
// table-frame spill/fill traffic. When verification raises an alarm the
// machine snapshots the ring (plus the activation stack and the
// alarming frame's branch-status vector) into an AlarmContext, turning
// the alarm from a bare (PC, direction) pair into a self-contained
// forensic record of how execution reached the infeasible path.
//
// The ring is written lazily: the verification kernel does no recorder
// work at all. A branch's slot is rebuilt later from the batch's own
// events, and the rare stack-shape entries the machine synthesises
// (enter, leave, spill, fill) wait in a small pending ring tagged with
// their stream position. Machine.fillRecorder writes the positions
// that survive in the window at the end of every public call and
// before every context capture, so a 512-event batch costs at most one
// ring's worth of slot writes instead of one per event, and every
// observable — RecorderTotal, RecorderLive, each AlarmContext — is what
// eager per-event recording would have left.
//
// Everything here is built for the zero-allocation serve path: both
// rings are preallocated when the machine is created and context
// capture reuses the slices of a bounded context ring, so a warmed
// machine records and captures without touching the heap —
// TestOnBatchZeroAlloc gates exactly that with the recorder enabled.

import (
	"repro/internal/tables"
	"repro/internal/wire"
)

// DefaultRecorderDepth is the flight-recorder ring capacity selected by
// Config.Recorder = 0 when a caller (the daemon) asks for forensics
// without sizing them. 64 events cover several protocol phases of the
// paper's workloads while keeping a context frame around 1KiB on the
// wire.
const DefaultRecorderDepth = 64

// DefaultAlarmCtxBuffer is the number of alarm contexts retained when
// Config.AlarmCtxBuffer is zero. Contexts are much heavier than alarms
// (each carries a ring snapshot), so the ring is intentionally shallow:
// forensics want the latest violations, Stats().Alarms keeps the count.
const DefaultAlarmCtxBuffer = 8

// DefaultCtxGap is the alarm-storm capture throttle selected by
// Config.CtxGap = 0: after a forensic capture, the branch sequence
// must advance 2048 events before the next alarm is snapshotted.
// Sparse alarms always capture; at flood rates (every branch
// alarming) the capture cost is bounded to one snapshot per gap
// instead of one per alarm, which is what keeps the recorder's serve
// path overhead a few percent even under wholesale tampering.
const DefaultCtxGap = 2048

// MaxContextStack bounds the activation-stack snapshot in an
// AlarmContext to the innermost frames. The cap keeps capture O(1) no
// matter how deep the activation stack grows (looped replays of a
// trace that never returns from its entry function grow it without
// bound), and it keeps every context within the wire protocol's
// per-frame stack limit. The innermost frames are the forensically
// interesting ones — they name the violating function and its callers;
// each window event still carries the full depth in RecEvent.Depth.
const MaxContextStack = 64

// RecEvent is one flight-recorder entry. PC carries the function base
// (EvEnter), the branch address (EvBranch) or is zero (EvLeave); Bits
// is the table traffic of a spill/fill. Depth is the table-stack depth
// after the event, Seq the branch-event sequence number at recording
// time.
type RecEvent struct {
	Seq   uint64
	PC    uint64
	Kind  EventKind
	Taken bool
	Depth int32
	Bits  int32
}

// StackEntry summarises one activation frame in an AlarmContext: the
// function's code base and its name ("" for unprotected library frames
// that pushed an inert activation).
type StackEntry struct {
	Base uint64
	Func string
}

// AlarmContext is the forensic record captured when an alarm fires:
// the alarm itself, the recorder's recent-event window (oldest first —
// the violating branch is always the last entry), the activation stack
// at the moment of violation (outermost kept frame first, truncated to
// the innermost MaxContextStack frames), and the alarming frame's
// branch-status vector as the BAT update actions had left it.
// Recorded is the recorder's lifetime event count, so a consumer can
// tell how much history scrolled out of the window.
type AlarmContext struct {
	Alarm    Alarm
	Recorded uint64
	Recent   []RecEvent
	Stack    []StackEntry
	BSV      []tables.Status
}

// CopyInto deep-copies the context into dst, reusing dst's slice
// capacity. Steady-state consumers (the daemon's per-session forensic
// snapshot) therefore copy contexts without allocating once warmed.
func (c *AlarmContext) CopyInto(dst *AlarmContext) {
	dst.Alarm = c.Alarm
	dst.Recorded = c.Recorded
	dst.Recent = append(dst.Recent[:0], c.Recent...)
	dst.Stack = append(dst.Stack[:0], c.Stack...)
	dst.BSV = append(dst.BSV[:0], c.BSV...)
}

// recSlot is the ring's internal event encoding: 16 bytes instead of
// RecEvent's 32. The small fields share one word — kind in bits 0..7,
// taken in bit 8, depth in bits 9..31 (truncated past 2^23 frames;
// forensics past eight million activations are not a regime the
// recorder serves), spill/fill bits in the high word. The seq is not
// stored: every branch advances it by one, so snapshotInto derives it
// from the kinds in the window. Slots are unpacked into RecEvent only
// at snapshot time, off the serve path.
type recSlot struct {
	pc, meta uint64
}

const recDepthMask = 1<<23 - 1

func (s *recSlot) unpack(seq uint64) RecEvent {
	return RecEvent{
		Seq:   seq,
		PC:    s.pc,
		Kind:  EventKind(s.meta & 0xff),
		Taken: s.meta&(1<<8) != 0,
		Depth: int32(s.meta >> 9 & recDepthMask),
		Bits:  int32(uint32(s.meta >> 32)),
	}
}

// recPend is a stack-shape entry waiting to be written into the ring,
// tagged with its stream position.
type recPend struct {
	pos uint64
	s   recSlot
}

// recorder is the fixed-capacity event ring. It stores small value
// events and overwrites silently: losing old history is the
// point of a flight recorder, and RecorderTotal tracks how much was
// seen. The capacity is rounded up to a power of two so a stream
// position maps to a slot by mask. A disabled recorder is the zero
// value (nil buf).
//
// The stream position of the next event is Machine.seq (the branch
// count) plus stacks (the stack entries counted); positions below
// filled are written into buf, and the ones from filled on are
// branches of the current call and the pend entries. pend is a ring of
// len(buf) entries, pN of them live from pHead: when it is full the
// oldest entry is a whole window behind the newest position, so no
// later window can hold it or the branches before the next entry, and
// it is dropped. depth is the packed stack depth at the last fill, the
// depth of the branches before the first pend entry.
type recorder struct {
	buf    []recSlot
	filled uint64
	stacks uint64
	depth  uint64
	pend   []recPend
	pHead  int
	pN     int
}

func newRecorder(capacity int) recorder {
	if capacity <= 0 {
		return recorder{}
	}
	pow := 1
	for pow < capacity {
		pow <<= 1
	}
	return recorder{buf: make([]recSlot, pow), pend: make([]recPend, pow)}
}

// enabled reports whether the ring exists (Config.Recorder > 0).
func (r *recorder) enabled() bool { return len(r.buf) != 0 }

// snapshotInto appends the live window, oldest first, onto dst (which
// the caller has truncated); dst's capacity is reused. The window must
// have been filled in (Machine.fillRecorder), and seq is the branch
// count at its newest event: a branch's seq is the count after it, any
// other event's the count before the next branch.
func (r *recorder) snapshotInto(dst []RecEvent, seq uint64) []RecEvent {
	n := min(r.filled, uint64(len(r.buf)))
	mask := uint64(len(r.buf) - 1)
	for i := r.filled - n; i != r.filled; i++ {
		if EventKind(r.buf[i&mask].meta&0xff) == EvBranch {
			seq--
		}
	}
	for i := r.filled - n; i != r.filled; i++ {
		s := &r.buf[i&mask]
		if EventKind(s.meta&0xff) == EvBranch {
			seq++
		}
		dst = append(dst, s.unpack(seq))
	}
	return dst
}

func (r *recorder) reset() {
	r.filled, r.stacks, r.depth, r.pN = 0, 0, 0, 0
}

// record counts one stack-shape event (enter, leave, spill, fill) and
// parks it in the pending ring; a disabled recorder costs the length
// check. Committed branches are counted by m.seq alone.
func (m *Machine) record(kind EventKind, pc uint64, bits int) {
	r := &m.rec
	if len(r.buf) == 0 {
		return
	}
	mask := len(r.pend) - 1
	if r.pN == len(r.pend) {
		r.pHead = (r.pHead + 1) & mask
		r.pN--
	}
	p := &r.pend[(r.pHead+r.pN)&mask]
	r.pN++
	p.pos = m.seq + r.stacks
	r.stacks++
	p.s = recSlot{pc: pc, meta: uint64(kind) | (uint64(len(m.stack))&recDepthMask)<<9 | uint64(uint32(bits))<<32}
}

// fillRecorder writes the positions counted since the last fill that
// survive in the window into the ring and advances filled past them.
// evs is the batch prefix verify has processed (nil outside a batch);
// its branch events are the branch positions, newest last. Walking back
// from the newest position, each pend entry sits at its own position
// and branches fill the positions between entries, at the depth the
// entry before them left (before the first entry, r.depth).
func (m *Machine) fillRecorder(evs []wire.Event) {
	r := &m.rec
	total := m.RecorderTotal()
	if total == r.filled {
		return
	}
	mask := uint64(len(r.buf) - 1)
	pmask := len(r.pend) - 1
	lo := max(r.filled, total-min(total, uint64(len(r.buf))))
	i, k := len(evs), r.pN
	for pos := total; pos > lo; {
		stop, depth := lo, r.depth
		var p *recPend
		if k > 0 {
			k--
			p = &r.pend[(r.pHead+k)&pmask]
			depth = p.s.meta & (recDepthMask << 9)
			stop = max(lo, p.pos+1)
		}
		for ; pos > stop; pos-- {
			i--
			for evs[i].Kind != wire.EvBranch {
				i--
			}
			t := uint64(0) // a conditional move, not a branch on the direction
			if evs[i].Taken {
				t = 1
			}
			r.buf[(pos-1)&mask] = recSlot{pc: evs[i].PC, meta: uint64(EvBranch) | t<<8 | depth}
		}
		if pos > lo { // pos-1 is p's own position
			pos--
			r.buf[pos&mask] = p.s
		}
	}
	r.filled = total
	r.pN = 0
	r.depth = (uint64(len(m.stack)) & recDepthMask) << 9
}

// captureContext fills in the flight recorder (evs as for
// fillRecorder) and snapshots it, the activation stack (innermost
// MaxContextStack frames) and the alarming frame's BSV into the next
// slot of the bounded context ring. Slot slices are reused
// (truncate + append), so capture allocates only while a slot grows
// past its high-water mark, and the stack cap keeps each capture O(1)
// even when a looped replay grows the live stack without bound.
func (m *Machine) captureContext(a Alarm, evs []wire.Event) {
	m.fillRecorder(evs)
	m.ctxTotal++
	var dst *AlarmContext
	if m.ctxN < len(m.ctxBuf) {
		dst = &m.ctxBuf[(m.ctxStart+m.ctxN)%len(m.ctxBuf)]
		m.ctxN++
	} else {
		dst = &m.ctxBuf[m.ctxStart]
		m.ctxStart = (m.ctxStart + 1) % len(m.ctxBuf)
	}
	dst.Alarm = a
	dst.Recorded = m.rec.filled
	dst.Recent = m.rec.snapshotInto(dst.Recent[:0], m.seq)
	dst.Stack = dst.Stack[:0]
	lo := 0
	if len(m.stack) > MaxContextStack {
		lo = len(m.stack) - MaxContextStack
	}
	for i := lo; i < len(m.stack); i++ {
		act := &m.stack[i]
		e := StackEntry{Base: act.base}
		if act.img != nil {
			e.Func = act.img.Name
		}
		dst.Stack = append(dst.Stack, e)
	}
	dst.BSV = dst.BSV[:0]
	if top := &m.stack[len(m.stack)-1]; top.img != nil {
		dst.BSV = append(dst.BSV, top.bsv...)
	}
}

// RecorderDepth returns the flight-recorder ring capacity (0 when the
// recorder is disabled).
func (m *Machine) RecorderDepth() int {
	return len(m.rec.buf)
}

// RecorderLive returns the number of events currently held in the
// flight-recorder window.
func (m *Machine) RecorderLive() int {
	return int(min(m.RecorderTotal(), uint64(len(m.rec.buf))))
}

// RecorderTotal returns the recorder's lifetime event count (how many
// events have passed through the window since the last Reset).
func (m *Machine) RecorderTotal() uint64 {
	if !m.rec.enabled() {
		return 0
	}
	return m.seq + m.rec.stacks
}

// ContextFor returns the retained alarm context whose alarm carries the
// given sequence number, or nil. The pointer aims into the machine's
// context ring: it is valid until the ring slot is overwritten by a
// later alarm (the daemon consumes contexts immediately after each
// OnBatch, inside the machine's single-owner discipline).
func (m *Machine) ContextFor(seq uint64) *AlarmContext {
	for i := m.ctxN - 1; i >= 0; i-- {
		c := &m.ctxBuf[(m.ctxStart+i)%len(m.ctxBuf)]
		if c.Alarm.Seq == seq {
			return c
		}
	}
	return nil
}

// LastContext returns the most recently captured alarm context (nil
// when no alarm has fired or the recorder is disabled). Same ownership
// rule as ContextFor.
func (m *Machine) LastContext() *AlarmContext {
	if m.ctxN == 0 {
		return nil
	}
	return &m.ctxBuf[(m.ctxStart+m.ctxN-1)%len(m.ctxBuf)]
}

// CtxCaptured returns the lifetime count of forensic captures (alarms
// that passed the storm throttle and were snapshotted). A consumer
// that drains the context ring incrementally — the daemon does, once
// per batch — compares this against its own high-water mark to find
// how many ring entries are new, paying nothing when none are.
func (m *Machine) CtxCaptured() uint64 { return m.ctxTotal }

// ContextCount returns the number of contexts currently retained.
func (m *Machine) ContextCount() int { return m.ctxN }

// ContextAt returns the i-th retained context, oldest first (nil when
// out of range). Same ownership rule as ContextFor: the pointer aims
// into the ring and is valid until that slot is overwritten.
func (m *Machine) ContextAt(i int) *AlarmContext {
	if i < 0 || i >= m.ctxN {
		return nil
	}
	return &m.ctxBuf[(m.ctxStart+i)%len(m.ctxBuf)]
}

// Contexts returns deep copies of the retained alarm contexts, oldest
// first — the boxed, caller-owned view for CLIs and tests, off the hot
// path.
func (m *Machine) Contexts() []AlarmContext {
	if m.ctxN == 0 {
		return nil
	}
	out := make([]AlarmContext, m.ctxN)
	for i := 0; i < m.ctxN; i++ {
		m.ctxBuf[(m.ctxStart+i)%len(m.ctxBuf)].CopyInto(&out[i])
	}
	return out
}
