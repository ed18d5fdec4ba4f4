package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Decode parses one frame payload (the bytes after the length prefix).
// It is pure and total: any input — truncated, oversized, hostile —
// yields a frame or an error, never a panic, and no allocation is
// sized from an attacker-controlled count without first checking that
// the bytes backing that count are actually present.
func Decode(payload []byte) (Frame, error) {
	d, err := newDecoder(payload)
	if err != nil {
		return nil, err
	}
	switch FrameType(payload[0]) {
	case TypeHello:
		return d.hello()
	case TypeHelloAck:
		return d.helloAck()
	case TypeBatch:
		b := Batch{Events: []Event{}} // non-nil: an empty batch decodes to empty, not absent
		if err := DecodeBatchInto(payload, &b); err != nil {
			return nil, err
		}
		return b, nil
	case TypeAlarm:
		return d.alarm()
	case TypeAlarmCtx:
		return d.alarmCtx()
	case TypeIncident:
		return d.incident()
	case TypeAck:
		return d.ack()
	case TypeError:
		return d.errorFrame()
	case TypeBye:
		return d.done(Bye{})
	case TypeImageGet, TypeImageMissing:
		return d.hashOnly(FrameType(payload[0]))
	case TypeImageBlob:
		return d.imageBlob()
	default:
		return nil, fmt.Errorf("wire: unknown frame type %d", payload[0])
	}
}

// decoder is a bounds-checked cursor over one payload body.
type decoder struct {
	b   []byte
	off int
}

// newDecoder refuses an empty or oversized payload and returns a cursor
// over the body behind its type byte.
func newDecoder(payload []byte) (decoder, error) {
	if len(payload) == 0 {
		return decoder{}, fmt.Errorf("wire: empty frame")
	}
	if len(payload) > MaxFrame {
		return decoder{}, fmt.Errorf("wire: frame payload %d exceeds MaxFrame", len(payload))
	}
	return decoder{b: payload[1:]}, nil
}

func (d *decoder) fail(what string) error {
	return fmt.Errorf("wire: truncated frame at %s", what)
}

func (d *decoder) u8(what string) (byte, error) {
	if d.off >= len(d.b) {
		return 0, d.fail(what)
	}
	v := d.b[d.off]
	d.off++
	return v, nil
}

func (d *decoder) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		return 0, d.fail(what)
	}
	d.off += n
	return v, nil
}

// u31 reads a uvarint bounded by 1<<31, the range of the protocol's
// uint32 fields.
func (d *decoder) u31(what string) (uint32, error) {
	v, err := d.uvarint(what)
	if err == nil && v > 1<<31 {
		err = fmt.Errorf("wire: %s %d out of range", what, v)
	}
	return uint32(v), err
}

// count reads an element count of at most max, each element costing at
// least one payload byte: a count past the bytes left is hostile, and
// refusing it bounds any slice sized from the count by the payload
// actually present.
func (d *decoder) count(what string, max uint64) (int, error) {
	n, m := binary.Uvarint(d.b[d.off:])
	if m <= 0 {
		return 0, d.fail(what + " count") // labels built only on failure
	}
	d.off += m
	if n > max || n > uint64(len(d.b)-d.off) {
		return 0, &countError{what, n, max}
	}
	return int(n), nil
}

// countError is count's refusal, formatted only when read: a hostile
// count costs the decoder one allocation.
type countError struct {
	what   string
	n, max uint64
}

func (e *countError) Error() string {
	if e.n > e.max {
		return fmt.Sprintf("wire: %s count %d exceeds %d", e.what, e.n, e.max)
	}
	return fmt.Sprintf("wire: %s count %d exceeds payload", e.what, e.n)
}

// bytes reads a uvarint length of at most max and that many bytes, and
// returns them aliasing the payload. The error labels are only built
// on failure, so a successful read never allocates.
func (d *decoder) bytes(what string, max uint64) ([]byte, error) {
	n, m := binary.Uvarint(d.b[d.off:])
	if m <= 0 {
		return nil, d.fail(what + " length")
	}
	d.off += m
	if n > max {
		return nil, fmt.Errorf("wire: %s length %d exceeds %d", what, n, max)
	}
	if d.off+int(n) > len(d.b) {
		return nil, d.fail(what)
	}
	s := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	return s, nil
}

// str is bytes copied out into a string.
func (d *decoder) str(what string) (string, error) {
	b, err := d.bytes(what, MaxString)
	return string(b), err
}

// end rejects trailing garbage, which would otherwise let a sender
// smuggle bytes past version checks.
func (d *decoder) end(t FrameType) error {
	if d.off != len(d.b) {
		return fmt.Errorf("wire: %d trailing bytes after %s frame", len(d.b)-d.off, t)
	}
	return nil
}

// done is end for a decoded frame.
func (d *decoder) done(f Frame) (Frame, error) {
	if err := d.end(f.Type()); err != nil {
		return nil, err
	}
	return f, nil
}

func (d *decoder) hello() (Frame, error) {
	var h Hello
	v, err := d.u8("hello version")
	if err != nil {
		return nil, err
	}
	h.Version = v
	if h.Image, err = d.hash("hello image hash"); err != nil {
		return nil, err
	}
	if h.Program, err = d.str("hello program"); err != nil {
		return nil, err
	}
	return d.done(h)
}

func (d *decoder) helloAck() (Frame, error) {
	var h HelloAck
	v, err := d.u8("helloack version")
	if err != nil {
		return nil, err
	}
	h.Version = v
	mb, err := d.uvarint("helloack maxbatch")
	if err != nil {
		return nil, err
	}
	if mb > MaxBatch {
		return nil, fmt.Errorf("wire: helloack maxbatch %d exceeds MaxBatch", mb)
	}
	h.MaxBatch = uint32(mb)
	return d.done(h)
}

// batchExt decodes the optional extension area trailing a batch's
// event list. A trace block (batchExtTrace) fills tid/origin; an
// unknown leading tag — or any bytes behind a decoded block — is
// skipped, not refused: the extension area is the frame's
// forward-compatibility valve, so a decoder predating a tag still
// accepts the events it understands. Truncated known blocks and a
// zero trace id (non-canonical: zero means untraced and is then not
// encoded at all) are hostile and refused.
func (d *decoder) batchExt(tid, origin *uint64) error {
	if d.off >= len(d.b) {
		return nil
	}
	tag, err := d.u8("batch extension tag")
	if err != nil {
		return err
	}
	if tag == batchExtTrace {
		v, err := d.uvarint("batch trace id")
		if err != nil {
			return err
		}
		if v == 0 {
			return fmt.Errorf("wire: batch trace extension with zero id")
		}
		o, err := d.uvarint("batch trace origin")
		if err != nil {
			return err
		}
		*tid, *origin = v, o
	}
	d.off = len(d.b) // skip unknown tags and anything behind known blocks
	return nil
}

// events decodes a batch body, appending onto evs (which may be nil or
// a reused slice already truncated by the caller).
func (d *decoder) events(evs []Event) ([]Event, error) {
	n, err := d.count("batch", MaxBatch)
	if err != nil {
		return nil, err
	}
	start := len(evs)
	if need := start + n; cap(evs) < need {
		grown := make([]Event, start, need)
		copy(grown, evs)
		evs = grown
	}
	// The loop below is the server's per-event decode cost, so it works
	// on local cursor copies and writes each event by index into the
	// slice pre-sized from the count. Runs of the dominant shape go
	// through branchRun's tight loop; the code here decodes the one
	// event that ended a run, which unrolls the one- and two-byte
	// uvarint cases and falls back to binary.Uvarint for longer PCs.
	// Semantics are identical to u8+uvarint.
	evs = evs[:start+n]
	out := evs[start:]
	b := d.b
	off := d.off
	for i := 0; i < len(out); i++ {
		var run int
		run, off = branchRun(out[i:], b, off)
		if i += run; i == len(out) {
			break
		}
		if off >= len(b) {
			d.off = off
			return nil, d.fail("event kind")
		}
		k := b[off]
		off++
		if k == evLeave {
			out[i] = Event{Kind: EvLeave}
			continue
		}
		if k > evBranchNotTaken {
			d.off = off
			return nil, fmt.Errorf("wire: unknown event kind %d", k)
		}
		var pc uint64
		if off < len(b) && b[off] < 0x80 {
			pc = uint64(b[off])
			off++
		} else if off+1 < len(b) && b[off+1] < 0x80 {
			pc = uint64(b[off]&0x7f) | uint64(b[off+1])<<7
			off += 2
		} else {
			v, m := binary.Uvarint(b[off:])
			if m <= 0 {
				d.off = off
				return nil, d.fail("event pc")
			}
			pc = v
			off += m
		}
		switch k {
		case evEnter:
			out[i] = Event{PC: pc, Kind: EvEnter}
		case evBranchTaken:
			out[i] = Event{PC: pc, Kind: EvBranch, Taken: true}
		default:
			out[i] = Event{PC: pc, Kind: EvBranch}
		}
	}
	d.off = off
	return evs, nil
}

// branchRun decodes the leading run of dominant-shape events at b[off:]
// — a branch kind byte and a 2-byte PC uvarint — into out, and returns
// how many it decoded and the offset behind them. Each is recognised
// with one masked compare on three bytes: kind&0xFE == 2 (taken or
// not-taken), the first PC byte continues (0x80 set), the second ends
// it (0x80 clear). The run stops at the first other shape, at fewer
// than three bytes left, or when out is full. Kept apart from the
// general decoder so its loop lives in registers.
func branchRun(out []Event, b []byte, off int) (int, int) {
	i := 0
	for ; i < len(out) && off+3 <= len(b); i++ {
		w := b[off : off+3 : off+3]
		v := uint32(w[0]) | uint32(w[1])<<8 | uint32(w[2])<<16
		if v&0x8080FE != 0x008002 {
			break
		}
		out[i] = Event{PC: uint64(v>>8&0x7f) | uint64(v>>16)<<7, Kind: EvBranch, Taken: v&1 == 0}
		off += 3
	}
	return i, off
}

// intoDecoder applies Decode's payload checks for a decoder of one
// frame type (named by who, for the error) and returns a cursor over
// the payload body.
func intoDecoder(payload []byte, t FrameType, who string) (decoder, error) {
	d, err := newDecoder(payload)
	if err == nil && FrameType(payload[0]) != t {
		err = fmt.Errorf("wire: %s on %s frame", who, FrameType(payload[0]))
	}
	return d, err
}

// DecodeBatchInto parses a Batch frame payload into *b, reusing the
// capacity of b.Events instead of allocating a fresh slice — the
// zero-allocation (steady-state) counterpart of Decode for the one
// frame kind that dominates a verification stream. The payload must be
// a TypeBatch frame; any other input yields an error and leaves b
// truncated but usable.
func DecodeBatchInto(payload []byte, b *Batch) error {
	b.Events = b.Events[:0]
	b.TraceID, b.OriginNs = 0, 0
	d, err := intoDecoder(payload, TypeBatch, "DecodeBatchInto")
	if err != nil {
		return err
	}
	evs, err := d.events(b.Events)
	if err != nil {
		return err
	}
	if err := d.batchExt(&b.TraceID, &b.OriginNs); err != nil {
		return err
	}
	b.Events = evs
	return nil
}

func (d *decoder) alarm() (Frame, error) {
	var a Alarm
	fn, err := d.alarmBody(&a)
	if err != nil {
		return nil, err
	}
	a.Func = string(fn)
	return d.done(a)
}

// alarmBody decodes an Alarm frame's fields into *a, except Func,
// whose bytes it returns aliasing the payload.
func (d *decoder) alarmBody(a *Alarm) ([]byte, error) {
	var err error
	if a.Seq, err = d.uvarint("alarm seq"); err != nil {
		return nil, err
	}
	if a.PC, err = d.uvarint("alarm pc"); err != nil {
		return nil, err
	}
	if a.Slot, err = d.u31("alarm slot"); err != nil {
		return nil, err
	}
	if a.Expected, err = d.u8("alarm expected"); err != nil {
		return nil, err
	}
	tk, err := d.u8("alarm taken")
	if err != nil {
		return nil, err
	}
	a.Taken = tk != 0
	return d.bytes("alarm func", MaxString)
}

// DecodeAlarmInto parses an Alarm frame payload into *a — the alarm
// counterpart of DecodeBatchInto. There is no Frame boxing and no
// string copy: a.Func is cleared and the function name comes back as
// fn, aliasing payload (so valid only as long as payload is). It
// accepts and refuses exactly the payloads Decode does for TypeAlarm;
// any other frame type is an error.
func DecodeAlarmInto(payload []byte, a *Alarm) (fn []byte, err error) {
	*a = Alarm{}
	d, err := intoDecoder(payload, TypeAlarm, "DecodeAlarmInto")
	if err != nil {
		return nil, err
	}
	if fn, err = d.alarmBody(a); err != nil {
		return nil, err
	}
	if err := d.end(TypeAlarm); err != nil {
		return nil, err
	}
	return fn, nil
}

func (d *decoder) incident() (Frame, error) {
	var in Incident
	var err error
	if in.ID, err = d.u31("incident id"); err != nil {
		return nil, err
	}
	if in.ScoreMilli, err = d.uvarint("incident score"); err != nil {
		return nil, err
	}
	if in.Alarms, err = d.uvarint("incident alarms"); err != nil {
		return nil, err
	}
	if in.Folded, err = d.uvarint("incident folded"); err != nil {
		return nil, err
	}
	if in.Sessions, err = d.u31("incident sessions"); err != nil {
		return nil, err
	}
	if in.Bursts, err = d.u31("incident bursts"); err != nil {
		return nil, err
	}
	if in.PC, err = d.uvarint("incident pc"); err != nil {
		return nil, err
	}
	if in.FirstSeq, err = d.uvarint("incident firstseq"); err != nil {
		return nil, err
	}
	if in.LastSeq, err = d.uvarint("incident lastseq"); err != nil {
		return nil, err
	}
	if in.Func, err = d.str("incident func"); err != nil {
		return nil, err
	}
	if in.Evidence, err = d.str("incident evidence"); err != nil {
		return nil, err
	}
	return d.done(in)
}

func (d *decoder) alarmCtx() (Frame, error) {
	var c AlarmCtx
	var err error
	if c.Seq, err = d.uvarint("alarmctx seq"); err != nil {
		return nil, err
	}
	if c.Recorded, err = d.uvarint("alarmctx recorded"); err != nil {
		return nil, err
	}

	nStack, err := d.count("alarmctx stack", MaxCtxStack)
	if err != nil {
		return nil, err
	}
	if nStack > 0 {
		c.Stack = make([]CtxFrame, 0, nStack)
	}
	for i := 0; i < nStack; i++ {
		var fr CtxFrame
		if fr.Base, err = d.uvarint("alarmctx frame base"); err != nil {
			return nil, err
		}
		if fr.Func, err = d.str("alarmctx frame func"); err != nil {
			return nil, err
		}
		c.Stack = append(c.Stack, fr)
	}

	nEv, err := d.count("alarmctx event", MaxCtxEvents)
	if err != nil {
		return nil, err
	}
	if nEv > 0 {
		c.Recent = make([]CtxEvent, 0, nEv)
	}
	for i := 0; i < nEv; i++ {
		k, err := d.u8("alarmctx event kind")
		if err != nil {
			return nil, err
		}
		if k > evFill {
			return nil, fmt.Errorf("wire: unknown context event kind %d", k)
		}
		var ev CtxEvent
		if ev.Seq, err = d.uvarint("alarmctx event seq"); err != nil {
			return nil, err
		}
		if ev.Depth, err = d.u31("alarmctx event depth"); err != nil {
			return nil, err
		}
		ev.Kind, ev.Taken = ctxKinds[k], k == evBranchTaken
		if ev.Kind != EvLeave {
			if ev.PC, err = d.uvarint("alarmctx event pc"); err != nil {
				return nil, err
			}
		}
		c.Recent = append(c.Recent, ev)
	}

	bsv, err := d.bytes("alarmctx bsv", MaxCtxBSV)
	if err != nil {
		return nil, err
	}
	c.BSV = append([]uint8(nil), bsv...) // nil when empty
	return d.done(c)
}

func (d *decoder) ack() (Frame, error) {
	var a Ack
	if err := d.ackBody(&a); err != nil {
		return nil, err
	}
	return a, nil
}

// ackBody decodes an Ack frame's body into *a, trailing-byte check
// included.
func (d *decoder) ackBody(a *Ack) error {
	var err error
	if a.Events, err = d.uvarint("ack events"); err != nil {
		return err
	}
	return d.end(TypeAck)
}

// DecodeAckInto parses an Ack frame payload into *a — the Ack
// counterpart of DecodeAlarmInto, with no Frame boxing. It accepts and
// refuses exactly the payloads Decode does for TypeAck; any other frame
// type is an error.
func DecodeAckInto(payload []byte, a *Ack) error {
	*a = Ack{}
	d, err := intoDecoder(payload, TypeAck, "DecodeAckInto")
	if err != nil {
		return err
	}
	return d.ackBody(a)
}

// hash reads the fixed-length content hash common to the registry
// frames.
func (d *decoder) hash(what string) ([HashLen]byte, error) {
	var h [HashLen]byte
	if d.off+HashLen > len(d.b) {
		return h, d.fail(what)
	}
	copy(h[:], d.b[d.off:])
	d.off += HashLen
	return h, nil
}

// hashOnly decodes the two registry frames that carry only a hash.
func (d *decoder) hashOnly(t FrameType) (Frame, error) {
	h, err := d.hash("image hash")
	if err != nil {
		return nil, err
	}
	if t == TypeImageGet {
		return d.done(ImageGet{Hash: h})
	}
	return d.done(ImageMissing{Hash: h})
}

func (d *decoder) imageBlob() (Frame, error) {
	var b ImageBlob
	var err error
	if b.Hash, err = d.hash("imageblob hash"); err != nil {
		return nil, err
	}
	data, err := d.bytes("imageblob data", MaxImageBlob)
	if err != nil {
		return nil, err
	}
	b.Data = append([]byte(nil), data...) // nil when empty
	return d.done(b)
}

func (d *decoder) errorFrame() (Frame, error) {
	var e Error
	c, err := d.u8("error code")
	if err != nil {
		return nil, err
	}
	e.Code = ErrCode(c)
	if e.Msg, err = d.str("error message"); err != nil {
		return nil, err
	}
	return d.done(e)
}

// Reader decodes a stream of length-prefixed frames. The payload
// buffer is reused between frames and grows geometrically (capped at
// MaxFrame), so a long stream settles into zero per-frame buffer
// allocations no matter how frame sizes fluctuate; decoded frames
// never alias it (strings and event slices are copied out by Decode).
//
// Next is resumable: when a read fails with a temporary error — a
// poked or expiring net deadline, typically — partial header/payload
// progress is kept, and the following Next call continues the same
// frame instead of desynchronising the stream. The server relies on
// this to wake blocked readers during shutdown and still drain the
// bytes a client had in flight.
type Reader struct {
	br  *bufio.Reader
	buf []byte

	hdr  [4]byte
	hdrN int // header bytes read so far
	need int // payload length once the header is complete (0 = no frame open)
	got  int // payload bytes read so far
}

// NewReader wraps r in a buffered frame reader.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 64<<10)}
}

// Buffered reports how many bytes are already pulled off the
// underlying connection and waiting in the reader's buffer. A caller
// that has just decoded a frame can keep decoding while Buffered is
// positive without risking a blocking read — the server's per-session
// readers use this to coalesce everything one socket read delivered
// into a single ring publish.
func (r *Reader) Buffered() int { return r.br.Buffered() }

// FrameBuffered reports whether the rest of the next frame — whatever
// of its length prefix and payload an interrupted read has not already
// consumed — is waiting in the reader's buffer, so the next Next,
// NextHeader or NextInto completes without touching the underlying
// connection. A partly buffered frame reports false: its read can
// block. The server arms a session's read deadline only when this is
// false, so every read that can wait on the socket starts with a
// fresh deadline, while a run of frames one fill delivered costs no
// deadline syscalls.
func (r *Reader) FrameBuffered() bool {
	n := r.br.Buffered()
	if r.need != 0 {
		return n >= r.need-r.got
	}
	left := 4 - r.hdrN
	if n < left {
		return false
	}
	hdr := r.hdr
	p, _ := r.br.Peek(left) // buffered, so Peek cannot read or fail
	copy(hdr[r.hdrN:], p)
	return uint64(n-left) >= uint64(binary.LittleEndian.Uint32(hdr[:]))
}

// minFrameBuf is the frame buffer's starting capacity; doubling from
// here reaches MaxFrame in a handful of growth steps.
const minFrameBuf = 4 << 10

// readFrame reads one length-prefixed payload into r.buf, resuming
// partial progress after a temporary error.
func (r *Reader) readFrame() error {
	for r.hdrN < 4 {
		n, err := r.br.Read(r.hdr[r.hdrN:])
		r.hdrN += n
		if err != nil && r.hdrN < 4 {
			if err == io.EOF && r.hdrN > 0 {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
	}
	if r.need == 0 {
		n := binary.LittleEndian.Uint32(r.hdr[:])
		if n == 0 {
			return fmt.Errorf("wire: zero-length frame")
		}
		if n > MaxFrame {
			return fmt.Errorf("wire: frame payload %d exceeds MaxFrame", n)
		}
		r.need = int(n)
		r.got = 0
		if cap(r.buf) < r.need {
			// Grow-capped reuse: at least double the old capacity (floor
			// minFrameBuf, ceiling MaxFrame) so oscillating frame sizes
			// cannot force an allocation per oversized frame.
			r.buf = make([]byte, min(max(2*cap(r.buf), minFrameBuf, r.need), MaxFrame))
		}
		r.buf = r.buf[:r.need]
	}
	for r.got < r.need {
		n, err := r.br.Read(r.buf[r.got:])
		r.got += n
		if err != nil && r.got < r.need {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
	}
	r.hdrN, r.need, r.got = 0, 0, 0
	return nil
}

// Next reads and decodes one frame. It returns io.EOF on a clean
// stream end between frames and io.ErrUnexpectedEOF on a stream that
// dies inside a frame. After a timeout error, calling Next again
// resumes the interrupted frame.
func (r *Reader) Next() (Frame, error) {
	if err := r.readFrame(); err != nil {
		return nil, err
	}
	return Decode(r.buf)
}

// NextHeader reads one frame and returns its type byte alongside the
// raw payload (type byte included), without decoding. The payload
// aliases the reader's internal buffer and is valid only until the
// following read. Callers that route or count certain frame kinds —
// the load generator counts forensic AlarmCtx frames without paying
// their decode — inspect the type and call Decode only when needed.
func (r *Reader) NextHeader() (FrameType, []byte, error) {
	if err := r.readFrame(); err != nil {
		return 0, nil, err
	}
	return FrameType(r.buf[0]), r.buf, nil
}

// NextInto is Next with an allocation-free fast path for Batch frames:
// a batch is decoded into *b — reusing b.Events' capacity — and b
// itself is returned as the Frame, so the dominant frame kind of a
// verification stream costs no per-frame slice or interface boxing.
// Other frame kinds fall back to Decode. The caller owns *b and must
// be done with it before the following NextInto call.
func (r *Reader) NextInto(b *Batch) (Frame, error) {
	if err := r.readFrame(); err != nil {
		return nil, err
	}
	if FrameType(r.buf[0]) == TypeBatch {
		if err := DecodeBatchInto(r.buf, b); err != nil {
			return nil, err
		}
		return b, nil
	}
	return Decode(r.buf)
}
