package ipds

// Event stream: instead of consumers polling the machine's alarm slice,
// the machine publishes runtime occurrences (alarms, table-frame
// spill/fill traffic, function enter/leave) to an optional EventSink.
// Alarm storage itself is a bounded ring buffer so long-running
// simulations cannot grow without bound; overflow is counted, never
// silent.

// EventKind discriminates machine events.
type EventKind uint8

// Machine event kinds.
const (
	// EvAlarm: an infeasible path was detected; Event.Alarm is set.
	EvAlarm EventKind = iota
	// EvSpill: a table frame moved off-chip; Event.Bits is the traffic.
	EvSpill
	// EvFill: a spilled frame moved back on-chip; Event.Bits is set.
	EvFill
	// EvEnter: a function's table frame was pushed; Event.Base is set.
	EvEnter
	// EvLeave: the top table frame was popped.
	EvLeave
	// EvBranch: a committed conditional branch. Branch events appear
	// only in flight-recorder windows (RecEvent) — the EventSink stream
	// never carries them, on either the per-event or the batched path:
	// at millions of branches per second a per-branch sink call would
	// be the hot path, which is exactly what the recorder's value ring
	// exists to avoid.
	EvBranch
)

// String names the event kind as emitted on the event stream
// ("alarm", "spill", "fill", "enter", "leave", "branch").
func (k EventKind) String() string {
	switch k {
	case EvAlarm:
		return "alarm"
	case EvSpill:
		return "spill"
	case EvFill:
		return "fill"
	case EvEnter:
		return "enter"
	case EvLeave:
		return "leave"
	case EvBranch:
		return "branch"
	}
	return "?"
}

// Event is one runtime occurrence published to the EventSink.
type Event struct {
	Kind  EventKind
	Seq   uint64 // branch-event sequence number at emission
	Depth int    // table-stack depth after the event
	Bits  int    // bits moved (spill/fill)
	Base  uint64 // function base address (enter)
	Alarm *Alarm // set for EvAlarm
}

// EventSink receives machine events synchronously. Implementations must
// be fast; they run inside the simulated hardware path.
//
// Semantics are identical on the per-event path (EnterFunc/LeaveFunc/
// OnBranch) and the batched path (OnBatch): both route through the same
// internal helpers, so a sink observes the same enter/leave/spill/fill/
// alarm stream — in the same order, with the same Seq and Depth values —
// whichever way the events were driven (TestEventSinkBatchedEquivalence
// pins this). Committed branches are never published (see EvBranch).
//
// Note the allocation trade: an attached sink boxes each alarm for its
// EvAlarm event, so the zero-allocation guarantee of the warm OnBatch
// path holds only sinkless. The flight recorder (Config.Recorder) is
// the allocation-free way to retain per-event history on the serve
// path; a sink is the right tool for simulators and experiments that
// want a synchronous callback.
type EventSink interface {
	Emit(Event)
}

// FuncSink adapts a function to EventSink.
type FuncSink func(Event)

// Emit calls the function.
func (f FuncSink) Emit(e Event) { f(e) }

// SetEventSink subscribes a consumer to machine events (nil to
// unsubscribe). Alarms keep accumulating in the bounded ring regardless.
func (m *Machine) SetEventSink(s EventSink) { m.sink = s }

func (m *Machine) emit(e Event) {
	if m.sink != nil {
		m.sink.Emit(e)
	}
}

// DefaultAlarmBuffer is the alarm ring capacity when Config.AlarmBuffer
// is zero. Large enough that short campaigns never wrap; bounded so a
// pathological long-running simulation cannot grow without bound.
const DefaultAlarmBuffer = 1024

// alarmRingMin is the number of entries a ring allocates on its first
// alarm.
const alarmRingMin = 16

// alarmRing is a bounded FIFO of alarms. Its buffer is allocated on
// the first push and doubles from alarmRingMin up to capacity, so a
// machine that never alarms holds no ring. Once full at capacity,
// pushing overwrites the oldest entry and counts the drop.
type alarmRing struct {
	buf      []Alarm
	capacity int // bound on len(buf)
	start    int // index of the oldest entry
	n        int // live entries
	dropped  uint64
}

func newAlarmRing(capacity int) *alarmRing {
	if capacity <= 0 {
		capacity = DefaultAlarmBuffer
	}
	return &alarmRing{capacity: capacity}
}

// push appends an alarm, growing the buffer while it is below capacity
// and overwriting the oldest entry once it is not.
func (r *alarmRing) push(a Alarm) {
	if r.n == len(r.buf) && r.n < r.capacity {
		// Entries only wrap once the buffer is at capacity, so a
		// growing ring is in order from index 0 (start is 0).
		buf := make([]Alarm, min(max(2*r.n, alarmRingMin), r.capacity))
		copy(buf, r.buf)
		r.buf = buf
	}
	if r.n < len(r.buf) {
		r.buf[(r.start+r.n)%len(r.buf)] = a
		r.n++
		return
	}
	r.buf[r.start] = a
	r.start = (r.start + 1) % len(r.buf)
	r.dropped++
}

// all returns the live alarms, oldest first.
func (r *alarmRing) all() []Alarm {
	if r == nil || r.n == 0 {
		return nil
	}
	out := make([]Alarm, 0, r.n)
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(r.start+i)%len(r.buf)])
	}
	return out
}

// reset empties the ring and keeps its buffer.
func (r *alarmRing) reset() {
	r.start, r.n, r.dropped = 0, 0, 0
}
