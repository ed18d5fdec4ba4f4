package ipds

// Event stream: the machine publishes table-stack occurrences
// (function enter/leave, table-frame spill/fill traffic) to an optional
// EventSink. Alarms are not on it: the OnBranch/OnBatch return values
// are the machine's one alarm outlet, and the machine keeps no alarm
// history of its own, like the paper's IPDS, which raises an exception
// at the violating branch.

// EventKind discriminates machine events.
type EventKind uint8

// Machine event kinds. Kind 0 is unused, so the values recorded in
// flight-recorder windows (RecEvent.Kind) stay what they have always
// been.
const (
	// EvSpill: a table frame moved off-chip; Event.Bits is the traffic.
	EvSpill EventKind = iota + 1
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
// ("spill", "fill", "enter", "leave", "branch").
func (k EventKind) String() string {
	switch k {
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
}

// EventSink receives machine events synchronously. Implementations must
// be fast; they run inside the simulated hardware path.
//
// Semantics are identical on the per-event path (EnterFunc/LeaveFunc/
// OnBranch) and the batched path (OnBatch): both route through the same
// internal helpers, so a sink observes the same enter/leave/spill/fill
// stream — in the same order, with the same Seq and Depth values —
// whichever way the events were driven (TestEventSinkBatchedEquivalence
// pins this). Committed branches are never published (see EvBranch).
//
// The flight recorder (Config.Recorder) is the way to retain per-event
// history on the serve path; a sink is the right tool for tests and
// simulators that want a synchronous callback.
type EventSink interface {
	Emit(Event)
}

// FuncSink adapts a function to EventSink.
type FuncSink func(Event)

// Emit calls the function.
func (f FuncSink) Emit(e Event) { f(e) }

// SetEventSink subscribes a consumer to machine events (nil to
// unsubscribe).
func (m *Machine) SetEventSink(s EventSink) { m.sink = s }

func (m *Machine) emit(e Event) {
	if m.sink != nil {
		m.sink.Emit(e)
	}
}
