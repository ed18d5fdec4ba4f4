package ipdsclient

import (
	"repro/internal/ipds"
	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/internal/vm"
	"repro/internal/wire"
)

// Capture executes art.Prog under the VM with the given input and
// records the branch-event stream an attached detector would see —
// function entries, exits, and every committed conditional branch — as
// wire events ready to ship to an ipdsd daemon. The stream is closed
// (Tracer.Close), so it ends at depth 0 and can be looped on one
// session.
func Capture(art *pipeline.Artifacts, input []string) []wire.Event {
	var t Tracer
	v := vm.New(art.Prog, vm.DefaultConfig, input)
	v.AddHooks(t.Hooks())
	v.Run()
	t.Close()
	return t.Events
}

// Tracer records the branch-event stream of VM runs as wire events.
// Add its Hooks to a VM before Run and call Close after it.
type Tracer struct {
	Events []wire.Event
	open   int // frames entered and not yet left
}

// Hooks returns the VM hooks that append to t.Events.
func (t *Tracer) Hooks() vm.Hooks {
	return vm.Hooks{
		OnCall: func(fn *ir.Func) {
			t.Events = append(t.Events, wire.Event{Kind: wire.EvEnter, PC: fn.Base})
			t.open++
		},
		OnRet: func(fn *ir.Func) {
			t.Events = append(t.Events, wire.Event{Kind: wire.EvLeave})
			t.open--
		},
		OnBranch: func(br *ir.Instr, taken bool) {
			t.Events = append(t.Events, wire.Event{Kind: wire.EvBranch, PC: br.PC, Taken: taken})
		},
	}
}

// Close ends a run's stream at depth 0: it appends a leave for every
// frame the run never returned from — main after exit_prog, the whole
// stack after a fault. Looped on one session, an open stream would
// deepen the daemon's table stack by those frames on every pass until
// the session hits the call-depth limit (vm.MaxCallDepth). The leaves
// follow the run's last branch, so the alarms are unchanged.
func (t *Tracer) Close() {
	for ; t.open > 0; t.open-- {
		t.Events = append(t.Events, wire.Event{Kind: wire.EvLeave})
	}
}

// Tamper returns a copy of a captured trace with every stride-th branch
// direction flipped (stride <= 0 means 97, a prime that scatters flips
// across protocol phases). This is the wire-level model of a control
// flow bent by memory corruption: the PCs are still legal branch sites,
// but the directions contradict the correlations the tables encode, so
// the verifier raises alarms exactly where a live detector would.
func Tamper(evs []wire.Event, stride int) []wire.Event {
	if stride <= 0 {
		stride = 97
	}
	out := make([]wire.Event, len(evs))
	copy(out, evs)
	nb := 0
	for i := range out {
		if out[i].Kind != wire.EvBranch {
			continue
		}
		if nb%stride == stride-1 {
			out[i].Taken = !out[i].Taken
		}
		nb++
	}
	return out
}

// TamperPoint returns a copy of a captured trace where, from the
// from-th event onward, every other visit to the branch at pc is
// flipped. Where Tamper models scattered corruption noise, TamperPoint
// models one persistent corruption with an onset: a repeatedly
// clobbered flag that makes a single branch site thrash, contradicting
// the invariant-direction correlation the tables encode for it on
// every other visit. (A constant forced direction would be
// self-consistent — the detector checks branches against correlations,
// not absolute directions — so the corrupted site must keep disagreeing
// with itself to flood the verifier from one root cause.) The
// incident-pipeline gate seeds exactly this shape and requires the
// pipeline to fold the flood into its top-ranked incident.
func TamperPoint(evs []wire.Event, pc uint64, from int) []wire.Event {
	out := make([]wire.Event, len(evs))
	copy(out, evs)
	if from < 0 {
		from = 0
	}
	flip := true
	for i := from; i < len(out); i++ {
		if out[i].Kind == wire.EvBranch && out[i].PC == pc {
			if flip {
				out[i].Taken = !out[i].Taken
			}
			flip = !flip
		}
	}
	return out
}

// ReplayLocalBatched feeds a trace through the machine's batched kernel
// (ipds.Machine.OnBatch) in batches of the given size (<= 0 means
// wire.MaxBatch), copying each batch's alarms out of the machine-owned
// result buffer. It must produce the same alarms, in the same order, as
// ReplayLocal over the same trace — the golden equivalence test in
// internal/server holds both (and the remote daemon) to that.
func ReplayLocalBatched(m *ipds.Machine, evs []wire.Event, batch int) []ipds.Alarm {
	if batch <= 0 {
		batch = wire.MaxBatch
	}
	var out []ipds.Alarm
	for len(evs) > 0 {
		n := min(batch, len(evs))
		out = append(out, m.OnBatch(evs[:n])...)
		evs = evs[n:]
	}
	return out
}

// WireContext converts a machine-captured forensic context to its wire
// frame form — the same mapping the daemon's no-box encoder performs
// when it follows an Alarm frame with an AlarmCtx. Tests use it to hold
// the daemon's forensics byte-identical to an in-process machine's:
// WireContext over the local machine's context must equal the AlarmCtx
// the client received. Spill/fill events carry their bits moved in the
// wire event's PC slot, as the wire format specifies.
func WireContext(c *ipds.AlarmContext) wire.AlarmCtx {
	out := wire.AlarmCtx{
		Seq:      c.Alarm.Seq,
		Recorded: c.Recorded,
	}
	if len(c.Stack) > 0 {
		out.Stack = make([]wire.CtxFrame, len(c.Stack))
		for i, fr := range c.Stack {
			out.Stack[i] = wire.CtxFrame{Base: fr.Base, Func: fr.Func}
		}
	}
	if len(c.Recent) > 0 {
		out.Recent = make([]wire.CtxEvent, len(c.Recent))
		for i, ev := range c.Recent {
			we := wire.CtxEvent{Seq: ev.Seq, Depth: uint32(ev.Depth)}
			switch ev.Kind {
			case ipds.EvEnter:
				we.Kind, we.PC = wire.EvEnter, ev.PC
			case ipds.EvLeave:
				we.Kind = wire.EvLeave
			case ipds.EvBranch:
				we.Kind, we.PC, we.Taken = wire.EvBranch, ev.PC, ev.Taken
			case ipds.EvSpill:
				we.Kind, we.PC = wire.EvSpill, uint64(uint32(ev.Bits))
			case ipds.EvFill:
				we.Kind, we.PC = wire.EvFill, uint64(uint32(ev.Bits))
			}
			out.Recent[i] = we
		}
	}
	if len(c.BSV) > 0 {
		out.BSV = make([]uint8, len(c.BSV))
		for i, st := range c.BSV {
			out.BSV[i] = uint8(st)
		}
	}
	return out
}

// ReplayLocal feeds a trace to an in-process ipds.Machine and returns
// every alarm raised, in order. This is the reference the remote path
// must match byte for byte: the daemon runs the same machine over the
// same events, so the alarm sets (Seq/PC/Func/Slot) are identical.
func ReplayLocal(m *ipds.Machine, evs []wire.Event) []ipds.Alarm {
	var out []ipds.Alarm
	for _, ev := range evs {
		switch ev.Kind {
		case wire.EvEnter:
			m.EnterFunc(ev.PC)
		case wire.EvLeave:
			m.LeaveFunc()
		case wire.EvBranch:
			if a, _ := m.OnBranch(ev.PC, ev.Taken); a != nil {
				out = append(out, *a)
			}
		}
	}
	return out
}
