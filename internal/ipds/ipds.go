// Package ipds implements the runtime half of the Infeasible Path
// Detection System (§5.4 of the paper): the hardware unit that receives
// every committed conditional branch, verifies checked branches against
// the Branch Status Vector, and applies Branch Action Table updates.
//
// BSV/BCV/BAT table sets are pushed and popped as functions are entered
// and left, forming stacks whose tops live in bounded on-chip buffers;
// deeper frames spill to protected memory (modelled by spill/fill
// counters that the CPU timing model in internal/cpu charges cycles
// for).
//
// The Machine is purely functional with respect to time: it answers
// "is this path infeasible" and "how many table accesses did this event
// cost"; cycle accounting lives in internal/cpu. Like the hardware,
// which raises an exception at the violating branch, it keeps no alarm
// history: OnBranch and OnBatch return the alarms they raise, Attach
// hands them to a callback, and Stats counts them.
package ipds

import (
	"fmt"

	"repro/internal/tables"
	"repro/internal/wire"
)

// Config sizes the on-chip table buffers, in bits (Table 1 defaults).
type Config struct {
	BSVStackBits int
	BCVStackBits int
	BATStackBits int

	// Strict rejects branch PCs that are not known branches of the
	// active function instead of letting the masked hash alias them
	// onto another branch's slot. Rejects are counted, never alarmed.
	Strict bool

	// Recorder enables the flight recorder: a preallocated ring of the
	// last Recorder committed events (enter/leave/branch/spill/fill)
	// snapshotted into an AlarmContext whenever an alarm fires. The
	// ring capacity rounds up to a power of two (a stream position
	// maps to a slot by mask). 0 disables forensics entirely (no ring,
	// no contexts).
	Recorder int

	// AlarmCtxBuffer bounds the retained alarm contexts (0 =
	// DefaultAlarmCtxBuffer). Only meaningful with Recorder > 0.
	AlarmCtxBuffer int

	// CtxGap throttles forensic capture under alarm storms: once a
	// context is captured, later alarms are still counted and
	// returned but not snapshotted until the branch-event
	// sequence has advanced by at least CtxGap. Sparse alarms — the
	// anomaly-detection regime the paper targets — are never
	// throttled; only floods degrade to sampled forensics, keeping
	// the capture cost bounded per event rather than per alarm. 0
	// selects DefaultCtxGap, negative disables the throttle (every
	// alarm captures). Only meaningful with Recorder > 0.
	CtxGap int
}

// DefaultConfig mirrors Table 1: 2K/1K/32K bits.
var DefaultConfig = Config{
	BSVStackBits: 2 * 1024,
	BCVStackBits: 1 * 1024,
	BATStackBits: 32 * 1024,
}

// Alarm reports one detected infeasible path.
type Alarm struct {
	Seq      uint64 // branch event sequence number
	PC       uint64
	Func     string
	Slot     int
	Expected tables.Status
	Taken    bool
}

// String renders the alarm as the one-line diagnostic the CLIs print:
// the branch PC, its function, the BSV status the BAT predicted (§4.2)
// and the direction actually taken.
func (a Alarm) String() string {
	return fmt.Sprintf("infeasible path: branch %#x in %s expected %s, went taken=%v (event %d)",
		a.PC, a.Func, a.Expected, a.Taken, a.Seq)
}

// Stats counts runtime activity, feeding the performance model and the
// experiment harness.
type Stats struct {
	Branches    uint64 // branch events received
	Verified    uint64 // events verified against the BSV (BCV-marked)
	Updates     uint64 // BAT update actions applied
	BATAccesses uint64 // BAT linked-list nodes walked
	Pushes      uint64 // function entries
	Pops        uint64 // function returns
	SpillEvents uint64 // frames moved off-chip
	FillEvents  uint64 // frames moved back on-chip
	SpillBits   uint64 // total bits spilled
	FillBits    uint64 // total bits filled
	Alarms      uint64 // alarms raised (returned by OnBranch/OnBatch)

	// StrictRejects counts branch PCs refused by strict slot checking.
	StrictRejects uint64
}

// activation is one table-stack frame. Frames are stored by value in
// the machine's stack slice, which doubles as an arena: popping a
// frame truncates the slice but leaves the frame's bsv slice parked in
// the unused capacity, so the next push at that depth reuses it
// (re-zeroed) instead of allocating. Steady-state enter/leave traffic
// therefore allocates only while the stack or a frame's slot count
// grows past its high-water mark.
type activation struct {
	img  *tables.FuncImage
	base uint64 // entry address the frame was pushed for (forensics)
	bsv  []tables.Status
}

func (a *activation) bits() (bsv, bcv, bat int) {
	if a.img == nil {
		return 0, 0, 0
	}
	return a.img.BSVBits, a.img.BCVBits, a.img.BATBits
}

// Machine is one protected process's IPDS state: the hardware unit of
// §4 — a stack of per-function table frames (BSV/BCV/BAT activations)
// fed by the branch stream.
//
// Ownership: a Machine models one hardware context and is NOT safe for
// concurrent use; exactly one goroutine (the VM or simulator driving
// it) may call its methods. The tables.Image it checks against is
// read-only and may be shared between machines (multi-process runs
// share one image per program).
type Machine struct {
	img   *tables.Image
	cfg   Config
	stack []activation // value arena; see activation

	// resident marks the lowest stack index currently on-chip; frames
	// below it are spilled to their home location.
	resident int
	bsvBits  int // on-chip bits across resident frames
	bcvBits  int
	batBits  int

	// batchAlarms is the machine-owned result buffer OnBatch returns a
	// view of; reused (truncated, never freed) across batches.
	batchAlarms []Alarm
	// walkLens is the kernel's walk-length tally, empty between calls.
	walkLens [batchWalkBuckets]uint64

	// Flight recorder (nil when Config.Recorder == 0) and the bounded
	// ring of captured alarm contexts; see recorder.go. ctxGap/ctxNext
	// implement the alarm-storm capture throttle.
	rec      recorder
	ctxBuf   []AlarmContext
	ctxStart int
	ctxN     int
	ctxGap   int
	ctxNext  uint64
	ctxTotal uint64

	sink  EventSink
	met   *machineMetrics
	stats Stats
	seq   uint64
}

// New creates a machine for a program's table image. With
// cfg.Recorder > 0 the flight-recorder ring and the alarm-context ring
// are preallocated here, so enabling forensics never allocates on the
// serve path later.
func New(img *tables.Image, cfg Config) *Machine {
	m := &Machine{
		img: img,
		cfg: cfg,
		rec: newRecorder(cfg.Recorder),
		met: &machineMetrics{}, // disabled until Instrument
	}
	if m.rec.enabled() {
		n := cfg.AlarmCtxBuffer
		if n <= 0 {
			n = DefaultAlarmCtxBuffer
		}
		m.ctxBuf = make([]AlarmContext, n)
		m.ctxGap = cfg.CtxGap
		if m.ctxGap == 0 {
			m.ctxGap = DefaultCtxGap
		}
	}
	return m
}

// Reset clears all state, keeping the image, configuration, any
// attached sink or registry instrumentation, and the warmed activation
// arena (so a reused machine stays allocation-free).
func (m *Machine) Reset() {
	m.stack = m.stack[:0]
	m.resident = 0
	m.bsvBits, m.bcvBits, m.batBits = 0, 0, 0
	m.batchAlarms = m.batchAlarms[:0]
	m.rec.reset()
	m.ctxStart, m.ctxN, m.ctxNext, m.ctxTotal = 0, 0, 0, 0
	m.stats = Stats{}
	m.seq = 0
	m.syncGauges()
}

// EnterFunc pushes the table frame for the function whose code starts
// at base. Unknown functions (library code without tables) push an
// inert frame, matching the paper's unprotected-library behaviour.
//
// The frame comes from the arena: a slot parked in the stack slice's
// spare capacity is recycled when one fits, so a warmed machine pushes
// without allocating.
func (m *Machine) EnterFunc(base uint64) {
	m.enterFunc(base)
	m.fillRecorder(nil)
}

// LeaveFunc pops the top table frame. The frame's storage stays parked
// in the arena for the next push at this depth.
func (m *Machine) LeaveFunc() {
	m.leaveFunc()
	m.fillRecorder(nil)
}

// enterFunc and leaveFunc are EnterFunc and LeaveFunc without filling
// in the flight recorder, which verify defers to the end of its batch.
// They are the kernel's stack-event cost, so the on-chip bits come
// straight from the FuncImage and each side effect is called only when
// its guard holds: spillToFit when a budget is exceeded, record with
// the recorder on, emit with a sink attached, syncGauges when the
// gauges are instrumented.
func (m *Machine) enterFunc(base uint64) {
	m.stats.Pushes++
	m.met.pushes.Inc()
	img := m.img.FuncAt(base)
	n := len(m.stack)
	if n < cap(m.stack) {
		m.stack = m.stack[:n+1]
	} else {
		m.stack = append(m.stack, activation{})
	}
	act := &m.stack[n]
	act.img = img
	act.base = base
	if img != nil {
		if cap(act.bsv) >= img.NumSlots {
			act.bsv = act.bsv[:img.NumSlots]
			clear(act.bsv)
		} else {
			act.bsv = make([]tables.Status, img.NumSlots)
		}
		m.bsvBits += img.BSVBits
		m.bcvBits += img.BCVBits
		m.batBits += img.BATBits
	} else {
		act.bsv = act.bsv[:0]
	}
	// Checked whatever img is: a lone oversized frame stays resident
	// over budget until a push gives spillToFit a frame below the top.
	if m.overBudget() {
		m.spillToFit()
	}
	if m.rec.enabled() {
		m.record(EvEnter, base, 0)
	}
	if m.sink != nil {
		m.sink.Emit(Event{Kind: EvEnter, Seq: m.seq, Depth: len(m.stack), Base: base})
	}
	if m.met.depth != nil {
		m.syncGauges()
	}
}

func (m *Machine) leaveFunc() {
	if len(m.stack) == 0 {
		return
	}
	m.stats.Pops++
	m.met.pops.Inc()
	img := m.stack[len(m.stack)-1].img
	m.stack = m.stack[:len(m.stack)-1]
	if len(m.stack) < m.resident {
		// The popped frame was itself spilled (cannot happen with the
		// fill-on-pop policy, but keep the invariant safe).
		m.resident = len(m.stack)
	} else {
		if img != nil {
			m.bsvBits -= img.BSVBits
			m.bcvBits -= img.BCVBits
			m.batBits -= img.BATBits
		}
		// Fill the new top if it had been spilled.
		if m.resident > 0 && m.resident == len(m.stack) {
			m.fillTop()
		}
	}
	if m.rec.enabled() {
		m.record(EvLeave, 0, 0)
	}
	if m.sink != nil {
		m.sink.Emit(Event{Kind: EvLeave, Seq: m.seq, Depth: len(m.stack)})
	}
	if m.met.depth != nil {
		m.syncGauges()
	}
}

// overBudget reports whether the resident frames exceed any on-chip
// buffer: the condition under which spillToFit has work.
func (m *Machine) overBudget() bool {
	return m.bsvBits > m.cfg.BSVStackBits ||
		m.bcvBits > m.cfg.BCVStackBits ||
		m.batBits > m.cfg.BATStackBits
}

func (m *Machine) spillToFit() {
	for m.resident < len(m.stack)-1 && m.overBudget() {
		victim := m.stack[m.resident]
		b1, b2, b3 := victim.bits()
		m.bsvBits -= b1
		m.bcvBits -= b2
		m.batBits -= b3
		m.resident++
		m.stats.SpillEvents++
		m.stats.SpillBits += uint64(b1 + b2 + b3)
		if mm := m.met; mm != nil {
			mm.spillEvents.Inc()
			mm.spillBits.Add(uint64(b1 + b2 + b3))
		}
		m.record(EvSpill, 0, b1+b2+b3)
		m.emit(Event{Kind: EvSpill, Seq: m.seq, Depth: len(m.stack), Bits: b1 + b2 + b3})
	}
}

func (m *Machine) fillTop() {
	m.resident--
	frame := m.stack[m.resident]
	b1, b2, b3 := frame.bits()
	m.bsvBits += b1
	m.bcvBits += b2
	m.batBits += b3
	m.stats.FillEvents++
	m.stats.FillBits += uint64(b1 + b2 + b3)
	if mm := m.met; mm != nil {
		mm.fillEvents.Inc()
		mm.fillBits.Add(uint64(b1 + b2 + b3))
	}
	m.record(EvFill, 0, b1+b2+b3)
	m.emit(Event{Kind: EvFill, Seq: m.seq, Depth: len(m.stack), Bits: b1 + b2 + b3})
	m.spillToFit()
}

// OnBranch processes one committed conditional branch: the
// single-event case of the verification kernel (verify), flushing only
// the walk-length bucket that event touched. It returns the alarm
// raised (nil if the path is consistent) and the number of table
// accesses the event cost (BSV/BCV probe plus BAT actions walked),
// which the CPU model converts into request-queue occupancy.
func (m *Machine) OnBranch(pc uint64, taken bool) (*Alarm, int) {
	ev := [1]wire.Event{{Kind: wire.EvBranch, PC: pc, Taken: taken}}
	m.batchAlarms = m.batchAlarms[:0]
	walked := m.verify(ev[:])
	m.fillRecorder(ev[:])
	if walked < batchWalkBuckets && m.walkLens[walked] != 0 {
		m.walkLens[walked] = 0
		m.met.batWalk.Observe(walked)
	}
	cost := 1 + int(walked)
	if len(m.batchAlarms) == 0 {
		return nil, cost
	}
	a := m.batchAlarms[0]
	return &a, cost
}

// batchWalkBuckets sizes the BAT walk-length tally the kernel fills
// for the batWalk histogram: walks shorter than this (all of them, in
// practice — see BakedInline) are counted in Machine.walkLens and
// flushed by the caller, OnBatch with one ObserveN per length; longer
// walks observe directly. Nothing is tallied while the histogram is
// nil (a machine never Instrumented, as in the daemon).
const batchWalkBuckets = 16

// OnBatch drives a whole decoded event batch — function entries,
// returns and committed branches, in stream order — through the
// verification kernel and returns the alarms the batch raised.
//
// It is behaviourally identical to calling EnterFunc/LeaveFunc/
// OnBranch per event: same alarms, same Stats, same table-stack state,
// and the same per-event cost (1 + BAT actions walked), so the
// internal/cpu timing model sees identical access counts. The golden
// equivalence test in internal/server and the linked-list oracle test
// in this package hold it to that. It performs zero heap allocations
// per event on a warmed machine. The walk-length tally is flushed into
// the batWalk histogram only when Instrument made it live; an
// uninstrumented machine neither fills nor flushes it.
//
// The returned slice is owned by the machine and valid only until the
// next OnBatch, OnBranch or Reset call; callers that retain alarms must
// copy them out before feeding the next event.
func (m *Machine) OnBatch(evs []wire.Event) []Alarm {
	m.batchAlarms = m.batchAlarms[:0]
	m.verify(evs)
	m.fillRecorder(evs)
	if m.met.batWalk != nil {
		for l, c := range m.walkLens {
			m.met.batWalk.ObserveN(uint64(l), c)
		}
		m.walkLens = [batchWalkBuckets]uint64{}
	}
	return m.batchAlarms
}

// verify is the verification kernel, over the baked slot-record form
// (tables.Baked). Stack-shape events go through enterFunc/leaveFunc; a
// run of consecutive branch events shares one load of the top
// activation, its image and its baked records (the stack cannot change
// between enter/leave events), and each branch is resolved with a
// single fixed-stride record probe fusing the checked bit and the
// inline BAT actions. The run is walked once: the branch loop itself
// ends it at the first non-branch event. Every variable shift on the
// per-branch path is masked to its operand width, which lets the
// compiler drop Go's oversized-shift guard; the masks are no-ops on
// every image the table decoder accepts (hash shifts in [1,
// hashfn.MaxShift], packed Meta fields). Branches cost the flight
// recorder nothing here: the caller fills in its ring from evs
// (fillRecorder).
//
// It advances m.seq and raises alarms (appending them to
// m.batchAlarms). Stats and obs counters accumulate in locals
// flushed once per call instead of per event; when the batWalk
// histogram is live, each walk's length is tallied into m.walkLens for
// the caller to flush into it (walks too long for the tally observe
// directly) — with it nil, the per-branch tally is skipped. It returns
// the BAT actions walked: each branch costs 1 + the actions it walked.
func (m *Machine) verify(evs []wire.Event) (walked uint64) {
	var branches, verified, rejects uint64
	seq := m.seq // kept in a register; synced to m.seq outside branch runs
	strict := m.cfg.Strict
	tally := m.met.batWalk != nil // walk lengths feed only a live histogram

	i := 0
	for i < len(evs) {
		// Stack-shape events go through the per-event helpers: they are
		// rare relative to branches and own their record/emit/gauge
		// semantics.
		if k := evs[i].Kind; k != wire.EvBranch {
			switch k {
			case wire.EvEnter:
				m.enterFunc(evs[i].PC)
			case wire.EvLeave:
				m.leaveFunc()
			}
			i++
			continue
		}

		// Hoist the top activation state across the run of consecutive
		// branch events starting here.
		var (
			img *tables.FuncImage
			bsv []tables.Status
		)
		if n := len(m.stack); n > 0 {
			act := &m.stack[n-1]
			img, bsv = act.img, act.bsv
		}
		runStart := i

		if img == nil {
			// No protected frame on top: each branch only counts, cost 1.
			for i < len(evs) && evs[i].Kind == wire.EvBranch {
				i++
			}
		} else {
			bk := img.Baked()
			recs := bk.Recs
			acts := bk.Acts
			// Hoist the slot hash into registers: the compiler cannot
			// prove the bsv stores below never alias the image fields,
			// so without this every event reloads Base and the params.
			base := img.Base
			s1, s2 := img.Hash.S1&63, img.Hash.S2&63
			mask := uint64(1)<<(img.Hash.SizeLog2&63) - 1
			for ; i < len(evs); i++ {
				ev := &evs[i]
				if ev.Kind != wire.EvBranch {
					break
				}
				pc := ev.PC
				t := uint64(0)
				if ev.Taken {
					t = 1
				}
				if strict && !img.ValidPC(pc) {
					// The masked hash would alias this PC onto another
					// branch's slot; refuse it instead of risking a bogus
					// verify or update.
					rejects++
					continue
				}
				x := (pc - base) >> 2 // hashfn.Params.Slot, hoisted form
				slot := int((x ^ x>>s1 ^ x>>s2) & mask)
				r := &recs[slot]
				// Verify edge, branch-free: the BCV checked bit (fused
				// into the record) ANDed with the status/direction
				// verdict. Only the rare alarm dispatch branches.
				mb := uint64(r.Meta) & 1
				verified += mb
				st := bsv[slot]
				if mb&st.MatchFail(t) != 0 {
					cur := seq + uint64(i-runStart) + 1
					a := Alarm{
						Seq: cur, PC: pc, Func: img.Name, Slot: slot,
						Expected: st, Taken: ev.Taken,
					}
					m.seq = cur // countAlarm captures context off m.seq-consistent state
					m.batchAlarms = append(m.batchAlarms, a)
					m.countAlarm(a, evs[:i+1])
				}
				// Update phase, checked or not: inline actions (unrolled
				// — BakedInline is 4) or one contiguous scan of a
				// flattened longer list. The overflow flag rides in the
				// already-loaded Meta word, so the common inline case
				// never touches Off/Tail.
				dir := (t ^ 1) & 1 // 0 taken, 1 not-taken (BATHeads convention)
				n := int(r.Meta >> ((2 + dir*3) & 31) & 7)
				if n != 0 {
					inl := &r.Inline[dir]
					a := inl[0]
					bsv[a>>2] = tables.Status(a & 3)
					if n >= 2 {
						a = inl[1]
						bsv[a>>2] = tables.Status(a & 3)
						if n >= 3 {
							a = inl[2]
							bsv[a>>2] = tables.Status(a & 3)
							if n == 4 {
								a = inl[3]
								bsv[a>>2] = tables.Status(a & 3)
							}
						}
					}
				} else if r.Meta>>((8+dir)&31)&1 != 0 {
					tail := int(r.Tail[dir])
					for _, a := range acts[r.Off[dir] : int(r.Off[dir])+tail] {
						bsv[a>>2] = tables.Status(a & 3)
					}
					n = tail
				}
				walked += uint64(n)
				if tally {
					if n < batchWalkBuckets {
						m.walkLens[n]++
					} else {
						m.met.batWalk.Observe(uint64(n))
					}
				}
			}
		}
		run := uint64(i - runStart)
		seq += run
		branches += run
		m.seq = seq
	}

	// Flush: owner-local Stats, then one atomic add per series. Every
	// BAT node walked applies one update action.
	m.stats.Branches += branches
	m.stats.Verified += verified
	m.stats.Updates += walked
	m.stats.BATAccesses += walked
	m.stats.StrictRejects += rejects
	mm := m.met
	mm.branches.Add(branches)
	mm.verified.Add(verified)
	mm.updates.Add(walked)
	mm.batAccesses.Add(walked)
	mm.strictRejects.Add(rejects)
	return walked
}

// countAlarm counts an alarm the caller has appended to m.batchAlarms
// and, with the flight recorder on, captures its forensic context; evs
// is the batch prefix ending at the violating branch.
func (m *Machine) countAlarm(a Alarm, evs []wire.Event) {
	m.stats.Alarms++
	m.met.alarms.Inc()
	if m.rec.enabled() {
		if m.ctxGap < 0 {
			m.captureContext(a, evs)
		} else if a.Seq >= m.ctxNext {
			m.captureContext(a, evs)
			m.ctxNext = a.Seq + uint64(m.ctxGap)
		}
	}
}

// Status returns the current expectation for a branch PC in the active
// frame (tests/diagnostics). Under Config.Strict it applies the same
// ValidPC check the verification kernel does: a PC that is not a known
// branch of the active function reports Unknown instead of aliasing
// onto another branch's slot through the masked hash.
func (m *Machine) Status(pc uint64) tables.Status {
	if len(m.stack) == 0 {
		return tables.Unknown
	}
	act := m.stack[len(m.stack)-1]
	if act.img == nil {
		return tables.Unknown
	}
	if m.cfg.Strict && !act.img.ValidPC(pc) {
		return tables.Unknown
	}
	return act.bsv[act.img.Slot(pc)]
}

// Depth returns the current table-stack depth.
func (m *Machine) Depth() int { return len(m.stack) }

// Stats returns the activity counters.
func (m *Machine) Stats() Stats { return m.stats }
