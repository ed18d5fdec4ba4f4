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
	if len(payload) == 0 {
		return nil, fmt.Errorf("wire: empty frame")
	}
	if len(payload) > MaxFrame {
		return nil, fmt.Errorf("wire: frame payload %d exceeds MaxFrame", len(payload))
	}
	d := decoder{b: payload[1:]}
	switch t := FrameType(payload[0]); t {
	case TypeHello:
		return d.hello()
	case TypeHelloAck:
		return d.helloAck()
	case TypeBatch:
		return d.batch()
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
	case TypeImageGet:
		return d.imageGet()
	case TypeImageBlob:
		return d.imageBlob()
	case TypeImageMissing:
		return d.imageMissing()
	default:
		return nil, fmt.Errorf("wire: unknown frame type %d", payload[0])
	}
}

// decoder is a bounds-checked cursor over one payload body.
type decoder struct {
	b   []byte
	off int
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

// bytes reads a uvarint length and that many bytes, capped at
// MaxString, and returns them aliasing the payload. The error labels
// are only built on failure, so a successful read never allocates.
func (d *decoder) bytes(what string) ([]byte, error) {
	n, m := binary.Uvarint(d.b[d.off:])
	if m <= 0 {
		return nil, d.fail(what + " length")
	}
	d.off += m
	if n > MaxString {
		return nil, fmt.Errorf("wire: %s length %d exceeds MaxString", what, n)
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
	b, err := d.bytes(what)
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
	if d.off+HashLen > len(d.b) {
		return nil, d.fail("hello image hash")
	}
	copy(h.Image[:], d.b[d.off:])
	d.off += HashLen
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

func (d *decoder) batch() (Frame, error) {
	evs, err := d.events([]Event{}) // non-nil: an empty batch decodes to empty, not absent
	if err != nil {
		return nil, err
	}
	b := Batch{Events: evs}
	if err := d.batchExt(&b.TraceID, &b.OriginNs); err != nil {
		return nil, err
	}
	return d.done(b)
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
	n, err := d.uvarint("batch count")
	if err != nil {
		return nil, err
	}
	if n > MaxBatch {
		return nil, fmt.Errorf("wire: batch of %d events exceeds MaxBatch", n)
	}
	// Every event costs at least one byte, so a count exceeding the
	// remaining bytes is hostile; refusing here bounds the allocation
	// below by the actual payload size.
	if int(n) > len(d.b)-d.off {
		return nil, fmt.Errorf("wire: batch count %d exceeds payload", n)
	}
	if need := len(evs) + int(n); cap(evs) < need {
		grown := make([]Event, len(evs), need)
		copy(grown, evs)
		evs = grown
	}
	// The loop below is the server's per-event decode cost, so it works
	// on local cursor copies and unrolls the one- and two-byte uvarint
	// cases (instrumented PCs are small; multi-byte PCs take the
	// binary.Uvarint fallback). Semantics are identical to u8+uvarint.
	b := d.b
	off := d.off
	for i := uint64(0); i < n; i++ {
		if off >= len(b) {
			d.off = off
			return nil, d.fail("event kind")
		}
		k := b[off]
		off++
		if k == evLeave {
			evs = append(evs, Event{Kind: EvLeave})
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
			evs = append(evs, Event{Kind: EvEnter, PC: pc})
		case evBranchTaken:
			evs = append(evs, Event{Kind: EvBranch, PC: pc, Taken: true})
		default:
			evs = append(evs, Event{Kind: EvBranch, PC: pc})
		}
	}
	d.off = off
	return evs, nil
}

// intoDecoder applies Decode's payload checks for a decoder of one
// frame type (named by who, for the error) and returns a cursor over
// the payload body.
func intoDecoder(payload []byte, t FrameType, who string) (decoder, error) {
	if len(payload) == 0 {
		return decoder{}, fmt.Errorf("wire: empty frame")
	}
	if len(payload) > MaxFrame {
		return decoder{}, fmt.Errorf("wire: frame payload %d exceeds MaxFrame", len(payload))
	}
	if FrameType(payload[0]) != t {
		return decoder{}, fmt.Errorf("wire: %s on %s frame", who, FrameType(payload[0]))
	}
	return decoder{b: payload[1:]}, nil
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
	slot, err := d.uvarint("alarm slot")
	if err != nil {
		return nil, err
	}
	if slot > 1<<31 {
		return nil, fmt.Errorf("wire: alarm slot %d out of range", slot)
	}
	a.Slot = uint32(slot)
	if a.Expected, err = d.u8("alarm expected"); err != nil {
		return nil, err
	}
	tk, err := d.u8("alarm taken")
	if err != nil {
		return nil, err
	}
	a.Taken = tk != 0
	return d.bytes("alarm func")
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
	id, err := d.uvarint("incident id")
	if err != nil {
		return nil, err
	}
	if id > 1<<31 {
		return nil, fmt.Errorf("wire: incident id %d out of range", id)
	}
	in.ID = uint32(id)
	if in.ScoreMilli, err = d.uvarint("incident score"); err != nil {
		return nil, err
	}
	if in.Alarms, err = d.uvarint("incident alarms"); err != nil {
		return nil, err
	}
	if in.Folded, err = d.uvarint("incident folded"); err != nil {
		return nil, err
	}
	sessions, err := d.uvarint("incident sessions")
	if err != nil {
		return nil, err
	}
	if sessions > 1<<31 {
		return nil, fmt.Errorf("wire: incident sessions %d out of range", sessions)
	}
	in.Sessions = uint32(sessions)
	bursts, err := d.uvarint("incident bursts")
	if err != nil {
		return nil, err
	}
	if bursts > 1<<31 {
		return nil, fmt.Errorf("wire: incident bursts %d out of range", bursts)
	}
	in.Bursts = uint32(bursts)
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

	nStack, err := d.uvarint("alarmctx stack count")
	if err != nil {
		return nil, err
	}
	if nStack > MaxCtxStack {
		return nil, fmt.Errorf("wire: alarmctx stack of %d frames exceeds MaxCtxStack", nStack)
	}
	// Every stack frame costs at least two bytes (base + name length);
	// a count past the remaining payload is hostile, and checking first
	// bounds the allocation below by the bytes actually present.
	if int(nStack) > len(d.b)-d.off {
		return nil, fmt.Errorf("wire: alarmctx stack count %d exceeds payload", nStack)
	}
	if nStack > 0 {
		c.Stack = make([]CtxFrame, 0, nStack)
	}
	for i := uint64(0); i < nStack; i++ {
		var fr CtxFrame
		if fr.Base, err = d.uvarint("alarmctx frame base"); err != nil {
			return nil, err
		}
		if fr.Func, err = d.str("alarmctx frame func"); err != nil {
			return nil, err
		}
		c.Stack = append(c.Stack, fr)
	}

	nEv, err := d.uvarint("alarmctx event count")
	if err != nil {
		return nil, err
	}
	if nEv > MaxCtxEvents {
		return nil, fmt.Errorf("wire: alarmctx window of %d events exceeds MaxCtxEvents", nEv)
	}
	if int(nEv) > len(d.b)-d.off {
		return nil, fmt.Errorf("wire: alarmctx event count %d exceeds payload", nEv)
	}
	if nEv > 0 {
		c.Recent = make([]CtxEvent, 0, nEv)
	}
	for i := uint64(0); i < nEv; i++ {
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
		depth, err := d.uvarint("alarmctx event depth")
		if err != nil {
			return nil, err
		}
		if depth > 1<<31 {
			return nil, fmt.Errorf("wire: alarmctx event depth %d out of range", depth)
		}
		ev.Depth = uint32(depth)
		switch k {
		case evEnter:
			ev.Kind = EvEnter
		case evLeave:
			ev.Kind = EvLeave
		case evBranchTaken:
			ev.Kind, ev.Taken = EvBranch, true
		case evBranchNotTaken:
			ev.Kind = EvBranch
		case evSpill:
			ev.Kind = EvSpill
		case evFill:
			ev.Kind = EvFill
		}
		if ev.Kind != EvLeave {
			if ev.PC, err = d.uvarint("alarmctx event pc"); err != nil {
				return nil, err
			}
		}
		c.Recent = append(c.Recent, ev)
	}

	nBSV, err := d.uvarint("alarmctx bsv count")
	if err != nil {
		return nil, err
	}
	if nBSV > MaxCtxBSV {
		return nil, fmt.Errorf("wire: alarmctx bsv of %d slots exceeds MaxCtxBSV", nBSV)
	}
	if d.off+int(nBSV) > len(d.b) {
		return nil, d.fail("alarmctx bsv")
	}
	if nBSV > 0 {
		c.BSV = append([]uint8(nil), d.b[d.off:d.off+int(nBSV)]...)
		d.off += int(nBSV)
	}
	return d.done(c)
}

func (d *decoder) ack() (Frame, error) {
	var a Ack
	var err error
	if a.Events, err = d.uvarint("ack events"); err != nil {
		return nil, err
	}
	return d.done(a)
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

func (d *decoder) imageGet() (Frame, error) {
	h, err := d.hash("imageget hash")
	if err != nil {
		return nil, err
	}
	return d.done(ImageGet{Hash: h})
}

func (d *decoder) imageBlob() (Frame, error) {
	var b ImageBlob
	var err error
	if b.Hash, err = d.hash("imageblob hash"); err != nil {
		return nil, err
	}
	n, err := d.uvarint("imageblob length")
	if err != nil {
		return nil, err
	}
	if n > MaxImageBlob {
		return nil, fmt.Errorf("wire: image blob of %d bytes exceeds MaxImageBlob", n)
	}
	if d.off+int(n) > len(d.b) {
		return nil, d.fail("imageblob data")
	}
	if n > 0 {
		b.Data = append([]byte(nil), d.b[d.off:d.off+int(n)]...)
		d.off += int(n)
	}
	return d.done(b)
}

func (d *decoder) imageMissing() (Frame, error) {
	h, err := d.hash("imagemissing hash")
	if err != nil {
		return nil, err
	}
	return d.done(ImageMissing{Hash: h})
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
			c := 2 * cap(r.buf)
			if c < minFrameBuf {
				c = minFrameBuf
			}
			if c < r.need {
				c = r.need
			}
			if c > MaxFrame {
				c = MaxFrame
			}
			r.buf = make([]byte, c)
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
