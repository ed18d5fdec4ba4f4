// Package wire defines the ipdsd remote-attestation protocol: the
// compact length-prefixed binary frames a monitored process (or a
// replaying client) streams to a verification daemon, and the alarm /
// acknowledgement / error frames the daemon streams back.
//
// The protocol is deliberately minimal and one-directional per frame
// kind: a session opens with a Hello that names the table image the
// client was compiled against (by SHA-256 of the marshalled
// tables.Image, so the daemon can resolve a shared image without
// recompiling), the daemon answers with a HelloAck, and from then on
// the client sends Batch frames of branch events (function enter/leave
// plus committed conditional branches) while the daemon sends Alarm,
// Ack and Error frames. A Bye frame from the client asks for a graceful
// drain; the daemon replies with a final Ack and its own Bye once every
// queued event has been verified and every queued alarm delivered.
//
// Framing: every frame is a little-endian uint32 payload length
// followed by the payload; payload byte 0 is the FrameType. Integers
// inside payloads are unsigned varints (binary.AppendUvarint), which
// keeps batched branch events at ~3 bytes each for typical PCs.
//
// The package has no dependencies beyond the standard library and the
// decoder is pure: hostile, truncated or oversized input yields an
// error, never a panic and never an allocation proportional to an
// attacker-controlled count (counts are validated against the bytes
// actually present before any slice is sized). The native fuzz target
// FuzzDecode hammers exactly that contract.
package wire

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Version is the protocol version carried in Hello/HelloAck. A daemon
// refuses clients whose version it does not speak.
const Version = 1

// Wire limits. Decode enforces all three; Append* enforce them on the
// encoding side so a conforming sender cannot produce a frame a
// conforming receiver refuses.
const (
	// MaxFrame bounds one frame payload in bytes.
	MaxFrame = 1 << 20
	// MaxBatch bounds the events in one Batch frame.
	MaxBatch = 1 << 16
	// MaxString bounds program and function names.
	MaxString = 1 << 10
	// HashLen is the table-image content-hash length (SHA-256).
	HashLen = 32
	// MaxCtxEvents bounds the recent-event window in one AlarmCtx frame.
	MaxCtxEvents = 1 << 12
	// MaxCtxStack bounds the activation-stack summary in an AlarmCtx.
	MaxCtxStack = 1 << 9
	// MaxCtxBSV bounds the branch-status-vector snapshot in an AlarmCtx.
	MaxCtxBSV = 1 << 16
	// MaxImageBlob bounds the marshalled table image carried in one
	// ImageBlob frame, leaving header room inside MaxFrame.
	MaxImageBlob = MaxFrame - 64
)

// FrameType discriminates frame payloads (payload byte 0).
type FrameType uint8

// Frame types. Zero is reserved so an all-zero payload is invalid.
const (
	TypeHello    FrameType = 1 // client → server: open session
	TypeHelloAck FrameType = 2 // server → client: session accepted
	TypeBatch    FrameType = 3 // client → server: branch events
	TypeAlarm    FrameType = 4 // server → client: infeasible path
	TypeAck      FrameType = 5 // server → client: events verified so far
	TypeError    FrameType = 6 // server → client: refusal/eviction
	TypeBye      FrameType = 7 // either direction: graceful close
	TypeAlarmCtx FrameType = 8 // server → client: forensic context for an alarm
	TypeIncident FrameType = 9 // server → client: folded incident summary

	// Registry frames (PR 8): a fleet node that receives a Hello naming
	// an image hash it cannot resolve locally fetches the marshalled
	// image from a peer registry over the same wire protocol.
	TypeImageGet     FrameType = 10 // node → registry: fetch image by hash
	TypeImageBlob    FrameType = 11 // registry → node: the marshalled image
	TypeImageMissing FrameType = 12 // registry → node: hash unknown here
)

// String names the frame type.
func (t FrameType) String() string {
	switch t {
	case TypeHello:
		return "hello"
	case TypeHelloAck:
		return "helloack"
	case TypeBatch:
		return "batch"
	case TypeAlarm:
		return "alarm"
	case TypeAck:
		return "ack"
	case TypeError:
		return "error"
	case TypeBye:
		return "bye"
	case TypeAlarmCtx:
		return "alarmctx"
	case TypeIncident:
		return "incident"
	case TypeImageGet:
		return "imageget"
	case TypeImageBlob:
		return "imageblob"
	case TypeImageMissing:
		return "imagemissing"
	}
	return fmt.Sprintf("frame(%d)", uint8(t))
}

// EventKind discriminates branch-stream events.
type EventKind uint8

// Event kinds. On the wire the branch direction is folded into the
// kind byte (see evBranchTaken / evBranchNotTaken) so a branch event
// costs one byte of kind plus one varint of PC.
const (
	// EvEnter pushes the table frame of the function based at PC.
	EvEnter EventKind = iota
	// EvLeave pops the top table frame.
	EvLeave
	// EvBranch verifies one committed conditional branch at PC.
	EvBranch
	// EvSpill reports a table frame moving off-chip. Spill/fill kinds
	// appear only inside AlarmCtx recent-event windows — Batch frames
	// carry the client's committed stream, where spills do not exist.
	EvSpill
	// EvFill reports a spilled frame moving back on-chip (AlarmCtx only).
	EvFill
)

// String names the event kind ("enter", "leave", "branch", ...).
func (k EventKind) String() string {
	switch k {
	case EvEnter:
		return "enter"
	case EvLeave:
		return "leave"
	case EvBranch:
		return "branch"
	case EvSpill:
		return "spill"
	case EvFill:
		return "fill"
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// Wire encodings of one event's kind byte. The spill/fill codes are
// legal only inside AlarmCtx recent-event lists, never in a Batch.
const (
	evEnter          = 0
	evLeave          = 1
	evBranchTaken    = 2
	evBranchNotTaken = 3
	evSpill          = 4
	evFill           = 5
)

// ctxCodes and ctxKinds map context event kinds to their wire codes
// and back; a taken branch is the one code ctxCodes leaves to its caller.
var (
	ctxCodes = [...]byte{EvEnter: evEnter, EvLeave: evLeave, EvBranch: evBranchNotTaken, EvSpill: evSpill, EvFill: evFill}
	ctxKinds = [...]EventKind{evEnter: EvEnter, evLeave: EvLeave, evBranchTaken: EvBranch, evBranchNotTaken: EvBranch, evSpill: EvSpill, evFill: EvFill}
)

// batchExtTrace tags the optional trace-context extension block that
// may trail a Batch frame's event list: uvarint trace id (nonzero by
// construction — zero means "untraced" in the struct, so a zero id on
// the wire is refused as non-canonical) followed by uvarint origin
// timestamp (client clock, unix nanoseconds). The extension area is
// the batch frame's forward-compatibility valve: a decoder skips tags
// it does not know and any bytes behind the blocks it does, so a
// sender may extend the frame without breaking older receivers, and
// an untraced batch encodes byte-identically to the pre-extension
// protocol.
const batchExtTrace = 1

// Event is one branch-stream occurrence: a function entry (PC = code
// base), a function return, or a committed conditional branch
// (PC = branch address, Taken = direction). This is the unit the
// daemon feeds to ipds.Machine.EnterFunc/LeaveFunc/OnBranch.
//
// PC leads so the two one-byte fields share its trailing word: the
// struct is 16 bytes, not 24, in every decoded batch, recorder window
// and captured stream (TestEventLayout holds it there).
type Event struct {
	PC    uint64
	Kind  EventKind
	Taken bool
}

// Frame is any decoded protocol frame.
type Frame interface {
	// Type returns the frame's wire type byte.
	Type() FrameType
}

// Hello opens a session: the protocol version, the SHA-256 of the
// marshalled table image the client's event stream must be verified
// against, and a free-form program name for diagnostics.
type Hello struct {
	Version uint8
	Image   [HashLen]byte
	Program string
}

// Type returns TypeHello.
func (Hello) Type() FrameType { return TypeHello }

// HelloAck accepts a session: the version the server speaks and the
// largest Batch it will accept.
type HelloAck struct {
	Version  uint8
	MaxBatch uint32
}

// Type returns TypeHelloAck.
func (HelloAck) Type() FrameType { return TypeHelloAck }

// Batch carries up to MaxBatch branch-stream events, optionally
// stamped with a sampled trace context (TraceID nonzero): the client's
// trace id and origin timestamp ride a trailing extension block, so
// the daemon can expand the batch into a per-stage latency span.
// TraceID zero means untraced — the batch then encodes byte-identically
// to the pre-extension protocol and the serve path spends nothing on
// it.
type Batch struct {
	Events []Event

	// TraceID is the sampled trace context's id; 0 = untraced (the
	// extension block is then not encoded at all).
	TraceID uint64

	// OriginNs is the client's send timestamp (unix nanoseconds on the
	// client's clock), meaningful only when TraceID is nonzero. The
	// wire leg of a span (client encode → daemon read) is derived from
	// it, so cross-host clock skew affects only that derived leg, never
	// the daemon-side stage ordering.
	OriginNs uint64
}

// Type returns TypeBatch.
func (Batch) Type() FrameType { return TypeBatch }

// Alarm reports one detected infeasible path, mirroring ipds.Alarm
// field for field (Expected is the tables.Status value).
type Alarm struct {
	Seq      uint64 // branch-event sequence number within the session
	PC       uint64
	Func     string
	Slot     uint32
	Expected uint8
	Taken    bool
}

// Type returns TypeAlarm.
func (Alarm) Type() FrameType { return TypeAlarm }

// CtxEvent is one entry of an AlarmCtx recent-event window: a replay of
// the committed events that led up to an alarm, as the verifier's
// flight recorder retained them. PC carries the function base (enter),
// the branch address (branch) or the bits moved (spill/fill); leave
// events carry no PC on the wire.
type CtxEvent struct {
	Seq   uint64 // branch-event sequence number at the event
	PC    uint64 // base / branch PC / bits moved, by kind
	Depth uint32 // table-stack depth after the event
	Kind  EventKind
	Taken bool // branch direction (EvBranch only)
}

// CtxFrame is one activation-stack entry of an AlarmCtx: the function
// base and (for table-carrying functions) its name; unprotected library
// frames have an empty name.
type CtxFrame struct {
	Base uint64
	Func string
}

// AlarmCtx is the optional forensic companion of an Alarm frame,
// paired by Seq: the flight-recorder window of committed events that
// led to the violation (oldest first, the violating branch last), the
// activation stack at the alarm (outermost first), and the alarming
// frame's branch-status vector as the BAT updates had left it.
// Recorded is the recorder's lifetime event count, so a consumer can
// tell how much history scrolled past the window.
type AlarmCtx struct {
	Seq      uint64 // Seq of the Alarm this context annotates
	Recorded uint64 // lifetime events seen by the recorder
	Stack    []CtxFrame
	Recent   []CtxEvent
	BSV      []uint8 // tables.Status per slot of the alarming frame
}

// Type returns TypeAlarmCtx.
func (AlarmCtx) Type() FrameType { return TypeAlarmCtx }

// Incident is one folded incident from the server's analytics stage,
// emitted (highest rank first) during the session's graceful drain so a
// client holding a storm of Alarm frames also receives the short ranked
// list underneath them. An Incident pairs with its Alarm/AlarmCtx
// frames by sequence range: the alarms it folds are exactly those with
// FirstSeq <= Seq <= LastSeq at PC. Score is fixed-point milli-units
// (ScoreMilli = round(score * 1000)) so the frame needs no float
// encoding; Evidence is the "; "-joined human-readable summary.
type Incident struct {
	ID         uint32 // 1-based rank in the server's incident list
	ScoreMilli uint64
	Alarms     uint64 // alarms folded into this incident
	Folded     uint64 // alarms removed by dedup alone
	Sessions   uint32 // sessions that saw the signal
	Bursts     uint32 // alarm-rate change-points detected
	PC         uint64 // branch address of the folded signal
	FirstSeq   uint64 // earliest folded alarm sequence number
	LastSeq    uint64 // latest folded alarm sequence number
	Func       string // enclosing function of the folded signal
	Evidence   string // "; "-joined evidence lines, MaxString-capped
}

// Type returns TypeIncident.
func (Incident) Type() FrameType { return TypeIncident }

// ImageGet asks a registry for the marshalled tables.Image whose
// SHA-256 is Hash — the same content address Hello carries, so a node
// can turn an unknown-image refusal into a fetch without recompiling.
type ImageGet struct {
	Hash [HashLen]byte
}

// Type returns TypeImageGet.
func (ImageGet) Type() FrameType { return TypeImageGet }

// ImageBlob answers an ImageGet with the marshalled image bytes. The
// hash is echoed so a fetcher multiplexing requests can pair replies,
// and so the receiver can (and must) verify SHA-256(Data) == Hash
// before trusting the blob.
type ImageBlob struct {
	Hash [HashLen]byte
	Data []byte
}

// Type returns TypeImageBlob.
func (ImageBlob) Type() FrameType { return TypeImageBlob }

// ImageMissing answers an ImageGet whose hash the registry does not
// hold (or whose blob exceeds MaxImageBlob). The fetcher moves on to
// the next peer.
type ImageMissing struct {
	Hash [HashLen]byte
}

// Type returns TypeImageMissing.
func (ImageMissing) Type() FrameType { return TypeImageMissing }

// Ack reports cumulative verification progress: the total number of
// events (of any kind) the server has fully processed on this session.
type Ack struct {
	Events uint64
}

// Type returns TypeAck.
func (Ack) Type() FrameType { return TypeAck }

// ErrCode classifies an Error frame.
type ErrCode uint8

// Error codes.
const (
	// ErrProtocol: malformed or out-of-order frame.
	ErrProtocol ErrCode = 1
	// ErrBadVersion: the Hello version is not spoken here.
	ErrBadVersion ErrCode = 2
	// ErrUnknownImage: the Hello image hash resolves to no table image.
	ErrUnknownImage ErrCode = 3
	// ErrIdle: the session sat idle past the server deadline.
	ErrIdle ErrCode = 4
	// ErrDraining: the server is shutting down.
	ErrDraining ErrCode = 5
	// ErrLimit: the session exceeded a per-session resource bound (its
	// table stack grew deeper than the VM's call-depth limit).
	ErrLimit ErrCode = 6
)

// String names the error code.
func (c ErrCode) String() string {
	switch c {
	case ErrProtocol:
		return "protocol"
	case ErrBadVersion:
		return "bad-version"
	case ErrUnknownImage:
		return "unknown-image"
	case ErrIdle:
		return "idle"
	case ErrDraining:
		return "draining"
	case ErrLimit:
		return "limit"
	}
	return fmt.Sprintf("err(%d)", uint8(c))
}

// Error is a server refusal, eviction notice or drain advisory. It is
// informational: for refusals and evictions the connection closes
// after the frame is delivered, while a mid-session ErrDraining frame
// announces a shutdown the client should react to (finish, drain,
// redial) with the session still live.
type Error struct {
	Code ErrCode
	Msg  string
}

// Type returns TypeError.
func (Error) Type() FrameType { return TypeError }

// Bye asks for (client → server) or announces (server → client) a
// graceful close.
type Bye struct{}

// Type returns TypeBye.
func (Bye) Type() FrameType { return TypeBye }

// Append encodes f as one length-prefixed frame appended to dst. It
// returns an error — leaving dst unusable — if the frame violates a
// wire limit (batch too large, string too long).
func Append(dst []byte, f Frame) ([]byte, error) {
	// Reserve the length prefix, encode the payload, then patch the
	// prefix in place.
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	var err error
	switch fr := f.(type) {
	case Hello:
		dst, err = appendHello(dst, fr)
	case HelloAck:
		dst = append(dst, byte(TypeHelloAck), fr.Version)
		dst = binary.AppendUvarint(dst, uint64(fr.MaxBatch))
	case Batch:
		dst, err = appendBatch(dst, fr)
	case Alarm:
		dst, err = appendAlarm(dst, fr)
	case AlarmCtx:
		dst, err = appendAlarmCtx(dst, fr)
	case Incident:
		dst, err = appendIncident(dst, fr)
	case Ack:
		dst = append(dst, byte(TypeAck))
		dst = binary.AppendUvarint(dst, fr.Events)
	case Error:
		dst, err = appendError(dst, fr)
	case Bye:
		dst = append(dst, byte(TypeBye))
	case ImageGet:
		dst = append(dst, byte(TypeImageGet))
		dst = append(dst, fr.Hash[:]...)
	case ImageBlob:
		dst, err = appendImageBlob(dst, fr)
	case ImageMissing:
		dst = append(dst, byte(TypeImageMissing))
		dst = append(dst, fr.Hash[:]...)
	default:
		err = fmt.Errorf("wire: cannot encode %T", f)
	}
	return finish(dst, start, err)
}

// finish completes a frame encoded behind the length prefix reserved at
// dst[start:]: it passes an encoding error through, refuses a payload
// past MaxFrame, and patches the prefix.
func finish(dst []byte, start int, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	payload := len(dst) - start - 4
	if payload > MaxFrame {
		return nil, fmt.Errorf("wire: frame payload %d exceeds MaxFrame", payload)
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(payload))
	return dst, nil
}

func appendHello(dst []byte, h Hello) ([]byte, error) {
	if len(h.Program) > MaxString {
		return nil, fmt.Errorf("wire: program name %d bytes exceeds MaxString", len(h.Program))
	}
	dst = append(dst, byte(TypeHello), h.Version)
	dst = append(dst, h.Image[:]...)
	dst = binary.AppendUvarint(dst, uint64(len(h.Program)))
	return append(dst, h.Program...), nil
}

func appendBatch(dst []byte, b Batch) ([]byte, error) {
	if len(b.Events) > MaxBatch {
		return nil, fmt.Errorf("wire: batch of %d events exceeds MaxBatch", len(b.Events))
	}
	// One growth for the common case: every event a 3-byte branch.
	dst = slices.Grow(dst, 1+binary.MaxVarintLen64+3*len(b.Events))
	dst = append(dst, byte(TypeBatch))
	dst = binary.AppendUvarint(dst, uint64(len(b.Events)))
	for _, ev := range b.Events {
		// Fast path, the dominant shape of instrumented code: a branch
		// whose PC is a 2-byte uvarint (0x80 <= PC < 0x4000), written
		// as kind byte plus both varint bytes at once.
		if ev.Kind == EvBranch && ev.PC-0x80 < 0x4000-0x80 {
			k := byte(evBranchNotTaken)
			if ev.Taken {
				k = evBranchTaken
			}
			dst = append(dst, k, byte(ev.PC)|0x80, byte(ev.PC>>7))
			continue
		}
		switch ev.Kind {
		case EvEnter:
			dst = append(dst, evEnter)
			dst = binary.AppendUvarint(dst, ev.PC)
		case EvLeave:
			dst = append(dst, evLeave)
		case EvBranch:
			if ev.Taken {
				dst = append(dst, evBranchTaken)
			} else {
				dst = append(dst, evBranchNotTaken)
			}
			dst = binary.AppendUvarint(dst, ev.PC)
		default:
			return nil, fmt.Errorf("wire: cannot encode event kind %d", ev.Kind)
		}
	}
	if b.TraceID != 0 {
		dst = appendTrace(dst, b.TraceID, b.OriginNs)
	}
	return dst, nil
}

// appendTrace appends the trace extension block: the one encoding of a
// stamp, shared by appendBatch and StampBatch.
func appendTrace(dst []byte, id, originNs uint64) []byte {
	dst = append(dst, batchExtTrace)
	dst = binary.AppendUvarint(dst, id)
	return binary.AppendUvarint(dst, originNs)
}

// StampBatch appends to dst a copy of frame — one encoded, untraced
// Batch frame, length prefix included — carrying the trace extension
// (id, originNs). The result is byte-identical to Append of the same
// Batch with TraceID id and OriginNs originNs, so a pre-encoded block
// can be stamped frame by frame without re-encoding its events; frame
// itself is never written. Untraced means the payload ends at its
// event list, as Append and AppendBatches encode it: decoders read only
// the first extension block, so a stamp behind another would be
// skipped. It refuses a non-Batch frame, a length prefix that disagrees
// with len(frame), a zero id (the wire's "untraced") and a result past
// MaxFrame, leaving dst unusable on error.
func StampBatch(dst, frame []byte, id, originNs uint64) ([]byte, error) {
	if len(frame) < 5 || FrameType(frame[4]) != TypeBatch {
		return nil, fmt.Errorf("wire: StampBatch needs an encoded Batch frame")
	}
	if n := binary.LittleEndian.Uint32(frame); uint64(n) != uint64(len(frame)-4) {
		return nil, fmt.Errorf("wire: StampBatch frame prefix %d disagrees with its %d payload bytes", n, len(frame)-4)
	}
	if id == 0 {
		return nil, fmt.Errorf("wire: StampBatch with zero trace id")
	}
	return finish(appendTrace(append(dst, frame...), id, originNs), len(dst), nil)
}

func appendAlarm(dst []byte, a Alarm) ([]byte, error) {
	if len(a.Func) > MaxString {
		return nil, fmt.Errorf("wire: func name %d bytes exceeds MaxString", len(a.Func))
	}
	dst = append(dst, byte(TypeAlarm))
	dst = binary.AppendUvarint(dst, a.Seq)
	dst = binary.AppendUvarint(dst, a.PC)
	dst = binary.AppendUvarint(dst, uint64(a.Slot))
	dst = append(dst, a.Expected)
	if a.Taken {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(a.Func)))
	return append(dst, a.Func...), nil
}

func appendAlarmCtx(dst []byte, c AlarmCtx) ([]byte, error) {
	if len(c.Stack) > MaxCtxStack {
		return nil, fmt.Errorf("wire: alarmctx stack of %d frames exceeds MaxCtxStack", len(c.Stack))
	}
	if len(c.Recent) > MaxCtxEvents {
		return nil, fmt.Errorf("wire: alarmctx window of %d events exceeds MaxCtxEvents", len(c.Recent))
	}
	if len(c.BSV) > MaxCtxBSV {
		return nil, fmt.Errorf("wire: alarmctx bsv of %d slots exceeds MaxCtxBSV", len(c.BSV))
	}
	dst = append(dst, byte(TypeAlarmCtx))
	dst = binary.AppendUvarint(dst, c.Seq)
	dst = binary.AppendUvarint(dst, c.Recorded)
	dst = binary.AppendUvarint(dst, uint64(len(c.Stack)))
	for _, fr := range c.Stack {
		if len(fr.Func) > MaxString {
			return nil, fmt.Errorf("wire: alarmctx func name %d bytes exceeds MaxString", len(fr.Func))
		}
		dst = binary.AppendUvarint(dst, fr.Base)
		dst = binary.AppendUvarint(dst, uint64(len(fr.Func)))
		dst = append(dst, fr.Func...)
	}
	dst = binary.AppendUvarint(dst, uint64(len(c.Recent)))
	for _, ev := range c.Recent {
		if int(ev.Kind) >= len(ctxCodes) {
			return nil, fmt.Errorf("wire: cannot encode context event kind %d", ev.Kind)
		}
		code := ctxCodes[ev.Kind]
		if ev.Kind == EvBranch && ev.Taken {
			code = evBranchTaken
		}
		dst = append(dst, code)
		dst = binary.AppendUvarint(dst, ev.Seq)
		dst = binary.AppendUvarint(dst, uint64(ev.Depth))
		if ev.Kind != EvLeave {
			dst = binary.AppendUvarint(dst, ev.PC)
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(c.BSV)))
	return append(dst, c.BSV...), nil
}

func appendIncident(dst []byte, in Incident) ([]byte, error) {
	if len(in.Func) > MaxString {
		return nil, fmt.Errorf("wire: func name %d bytes exceeds MaxString", len(in.Func))
	}
	if len(in.Evidence) > MaxString {
		return nil, fmt.Errorf("wire: evidence %d bytes exceeds MaxString", len(in.Evidence))
	}
	dst = append(dst, byte(TypeIncident))
	dst = binary.AppendUvarint(dst, uint64(in.ID))
	dst = binary.AppendUvarint(dst, in.ScoreMilli)
	dst = binary.AppendUvarint(dst, in.Alarms)
	dst = binary.AppendUvarint(dst, in.Folded)
	dst = binary.AppendUvarint(dst, uint64(in.Sessions))
	dst = binary.AppendUvarint(dst, uint64(in.Bursts))
	dst = binary.AppendUvarint(dst, in.PC)
	dst = binary.AppendUvarint(dst, in.FirstSeq)
	dst = binary.AppendUvarint(dst, in.LastSeq)
	dst = binary.AppendUvarint(dst, uint64(len(in.Func)))
	dst = append(dst, in.Func...)
	dst = binary.AppendUvarint(dst, uint64(len(in.Evidence)))
	return append(dst, in.Evidence...), nil
}

func appendImageBlob(dst []byte, b ImageBlob) ([]byte, error) {
	if len(b.Data) > MaxImageBlob {
		return nil, fmt.Errorf("wire: image blob of %d bytes exceeds MaxImageBlob", len(b.Data))
	}
	dst = append(dst, byte(TypeImageBlob))
	dst = append(dst, b.Hash[:]...)
	dst = binary.AppendUvarint(dst, uint64(len(b.Data)))
	return append(dst, b.Data...), nil
}

func appendError(dst []byte, e Error) ([]byte, error) {
	if len(e.Msg) > MaxString {
		return nil, fmt.Errorf("wire: error message %d bytes exceeds MaxString", len(e.Msg))
	}
	dst = append(dst, byte(TypeError), byte(e.Code))
	dst = binary.AppendUvarint(dst, uint64(len(e.Msg)))
	return append(dst, e.Msg...), nil
}

// AppendAlarm encodes a as one length-prefixed Alarm frame appended to
// dst without routing a through the Frame interface. The server calls
// this once per raised alarm on its verify hot path, where boxing the
// frame value would be the only allocation left; encoding and limits
// are exactly those of Append.
func AppendAlarm(dst []byte, a Alarm) ([]byte, error) {
	start := len(dst)
	dst, err := appendAlarm(append(dst, 0, 0, 0, 0), a)
	return finish(dst, start, err)
}

// AppendAlarmCtx encodes c as one length-prefixed AlarmCtx frame
// appended to dst without routing it through the Frame interface — the
// forensic counterpart of AppendAlarm on the server's alarm path.
func AppendAlarmCtx(dst []byte, c AlarmCtx) ([]byte, error) {
	start := len(dst)
	dst, err := appendAlarmCtx(append(dst, 0, 0, 0, 0), c)
	return finish(dst, start, err)
}

// AppendIncident encodes in as one length-prefixed Incident frame
// appended to dst without routing it through the Frame interface,
// matching the AppendAlarm/AppendAlarmCtx pattern the server's send
// path relies on to stay box-free.
func AppendIncident(dst []byte, in Incident) ([]byte, error) {
	start := len(dst)
	dst, err := appendIncident(append(dst, 0, 0, 0, 0), in)
	return finish(dst, start, err)
}

// AppendAck encodes a cumulative-progress Ack as one length-prefixed
// frame appended to dst, the no-boxing counterpart of AppendAlarm for
// the per-batch acknowledgement.
func AppendAck(dst []byte, a Ack) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, byte(TypeAck))
	dst = binary.AppendUvarint(dst, a.Events)
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// MustAppend is Append for frames known to respect the wire limits
// (server-constructed acks, byes, bounded batches). It panics on an
// encoding error, which for such frames means a programming bug.
func MustAppend(dst []byte, f Frame) []byte {
	out, err := Append(dst, f)
	if err != nil {
		panic(err)
	}
	return out
}

// AppendBatches splits evs into Batch frames of at most max events
// (max <= 0 or > MaxBatch selects MaxBatch) and appends them to dst.
func AppendBatches(dst []byte, evs []Event, max int) []byte {
	if max <= 0 || max > MaxBatch {
		max = MaxBatch
	}
	for len(evs) > 0 {
		n := min(len(evs), max)
		dst = MustAppend(dst, Batch{Events: evs[:n]})
		evs = evs[n:]
	}
	return dst
}
