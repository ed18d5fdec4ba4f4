package server

import (
	"encoding/binary"

	"repro/internal/ipds"
	"repro/internal/wire"
)

// Forensic frame emission. When a session's machine runs with the
// flight recorder enabled, every Alarm frame the session streams out
// is followed by an AlarmCtx frame carrying the machine's captured
// forensic context (recent-event window, activation stack, BSV).
//
// The context lives in machine-owned ring slots (ipds.AlarmContext with
// three slices), while wire.AppendAlarmCtx wants a wire.AlarmCtx with
// three differently-typed slices — converting per alarm would put three
// allocations back on the serve path the rest of the server works hard
// to keep allocation-free. appendAlarmCtx therefore encodes the frame
// directly from the machine's representation into the session's write
// buffer. TestAppendAlarmCtxMatchesWire pins it byte-identical to the
// wire package's canonical encoder, so clients cannot tell which side
// produced the bytes.

// ctxKindByte maps an ipds recorder event to its wire kind byte,
// mirroring the EventKind switch in wire's appendAlarmCtx. The bool is
// false for a kind the wire format cannot carry (impossible for
// recorder output; checked anyway so a future kind fails closed).
func ctxKindByte(kind ipds.EventKind, taken bool) (byte, bool) {
	switch kind {
	case ipds.EvEnter:
		return 0, true // evEnter
	case ipds.EvLeave:
		return 1, true // evLeave
	case ipds.EvBranch:
		if taken {
			return 2, true // evBranchTaken
		}
		return 3, true // evBranchNotTaken
	case ipds.EvSpill:
		return 4, true // evSpill
	case ipds.EvFill:
		return 5, true // evFill
	}
	return 0, false
}

// appendAlarmCtx appends one length-prefixed wire.TypeAlarmCtx frame
// encoding c, allocation-free beyond dst's own growth. It reports
// false — with dst unchanged — when the context exceeds a wire limit
// (stack deeper than MaxCtxStack, window larger than MaxCtxEvents, BSV
// larger than MaxCtxBSV, frame larger than MaxFrame); the caller counts
// the drop instead of losing the session.
func appendAlarmCtx(dst []byte, c *ipds.AlarmContext) ([]byte, bool) {
	if len(c.Stack) > wire.MaxCtxStack || len(c.Recent) > wire.MaxCtxEvents || len(c.BSV) > wire.MaxCtxBSV {
		return dst, false
	}
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, byte(wire.TypeAlarmCtx))
	dst = binary.AppendUvarint(dst, c.Alarm.Seq)
	dst = binary.AppendUvarint(dst, c.Recorded)
	dst = binary.AppendUvarint(dst, uint64(len(c.Stack)))
	for i := range c.Stack {
		fr := &c.Stack[i]
		name := fr.Func
		if len(name) > wire.MaxString {
			name = name[:wire.MaxString]
		}
		dst = binary.AppendUvarint(dst, fr.Base)
		dst = binary.AppendUvarint(dst, uint64(len(name)))
		dst = append(dst, name...)
	}
	dst = binary.AppendUvarint(dst, uint64(len(c.Recent)))
	for i := range c.Recent {
		ev := &c.Recent[i]
		kb, ok := ctxKindByte(ev.Kind, ev.Taken)
		if !ok {
			return dst[:start], false
		}
		dst = append(dst, kb)
		dst = binary.AppendUvarint(dst, ev.Seq)
		dst = binary.AppendUvarint(dst, uint64(uint32(ev.Depth)))
		switch ev.Kind {
		case ipds.EvLeave:
			// leave carries no PC on the wire
		case ipds.EvSpill, ipds.EvFill:
			// spill/fill reuse the PC slot for the bits moved
			dst = binary.AppendUvarint(dst, uint64(uint32(ev.Bits)))
		default:
			dst = binary.AppendUvarint(dst, ev.PC)
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(c.BSV)))
	for _, st := range c.BSV {
		dst = append(dst, uint8(st))
	}
	payload := len(dst) - start - 4
	if payload > wire.MaxFrame {
		return dst[:start], false
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(payload))
	return dst, true
}
