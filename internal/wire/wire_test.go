package wire

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// sampleFrames covers every frame type with representative payloads.
func sampleFrames() []Frame {
	var img [HashLen]byte
	for i := range img {
		img[i] = byte(i * 7)
	}
	return []Frame{
		Hello{Version: Version, Image: img, Program: "telnetd"},
		Hello{Version: Version}, // empty program name
		HelloAck{Version: Version, MaxBatch: MaxBatch},
		Batch{Events: []Event{
			{Kind: EvEnter, PC: 0x40},
			{Kind: EvBranch, PC: 0x4a, Taken: true},
			{Kind: EvBranch, PC: 0x52},
			{Kind: EvLeave},
		}},
		Batch{}, // empty batch is legal
		Batch{Events: []Event{
			{Kind: EvEnter, PC: 0x40},
			{Kind: EvBranch, PC: 0x4a, Taken: true},
		}, TraceID: 0xdeadbeefcafe, OriginNs: 1_700_000_000_123_456_789},
		Batch{TraceID: 7, OriginNs: 1}, // traced empty batch is legal
		Alarm{Seq: 912, PC: 0x7fffffff12, Func: "handle_cmd", Slot: 13, Expected: 2, Taken: true},
		AlarmCtx{
			Seq:      912,
			Recorded: 5000,
			Stack:    []CtxFrame{{Base: 0x40, Func: "main"}, {Base: 0x90, Func: "handle_cmd"}, {Base: 0x200}},
			Recent: []CtxEvent{
				{Kind: EvEnter, Seq: 900, PC: 0x90, Depth: 2},
				{Kind: EvBranch, Seq: 901, PC: 0x9a, Depth: 2, Taken: true},
				{Kind: EvSpill, Seq: 901, PC: 4096, Depth: 2},
				{Kind: EvFill, Seq: 905, PC: 4096, Depth: 1},
				{Kind: EvLeave, Seq: 910, Depth: 1},
				{Kind: EvBranch, Seq: 912, PC: 0x7fffffff12, Depth: 1},
			},
			BSV: []uint8{0, 1, 2, 0},
		},
		AlarmCtx{Seq: 1}, // context with an empty window is legal
		Ack{Events: 1 << 40},
		Incident{
			ID: 1, ScoreMilli: 144_250, Alarms: 69632, Folded: 69000,
			Sessions: 4, Bursts: 4, PC: 0x7fffffff12,
			FirstSeq: 524288, LastSeq: 1 << 20, Func: "handle_cmd",
			Evidence: "69632 alarm(s) across 4 session(s) at handle_cmd@0x7fffffff12; 4 alarm-rate change-point(s)",
		},
		Incident{ID: 2}, // evidence-free incident is legal
		Error{Code: ErrUnknownImage, Msg: "no such image"},
		Bye{},
		ImageGet{Hash: img},
		ImageBlob{Hash: img, Data: []byte{0xde, 0xad, 0xbe, 0xef, 0x00, 0x01}},
		ImageBlob{Hash: img}, // empty blob is legal on the wire
		ImageMissing{Hash: img},
	}
}

func TestFrameRoundTrip(t *testing.T) {
	for _, f := range sampleFrames() {
		enc, err := Append(nil, f)
		if err != nil {
			t.Fatalf("Append(%v): %v", f.Type(), err)
		}
		got, err := Decode(enc[4:])
		if err != nil {
			t.Fatalf("Decode(%v): %v", f.Type(), err)
		}
		want := f
		if b, ok := want.(Batch); ok && b.Events == nil {
			// Decode materialises an empty (non-nil) slice.
			b.Events = []Event{}
			want = b
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip %v: got %#v want %#v", f.Type(), got, want)
		}
	}
}

func TestReaderStream(t *testing.T) {
	var buf []byte
	frames := sampleFrames()
	for _, f := range frames {
		var err error
		buf, err = Append(buf, f)
		if err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(bytes.NewReader(buf))
	for i, want := range frames {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type() != want.Type() {
			t.Fatalf("frame %d: got %v want %v", i, got.Type(), want.Type())
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("stream end: got %v want io.EOF", err)
	}
}

func TestReaderMidFrameEOF(t *testing.T) {
	enc, _ := Append(nil, Ack{Events: 7})
	for cut := 1; cut < len(enc); cut++ {
		r := NewReader(bytes.NewReader(enc[:cut]))
		if _, err := r.Next(); err == nil {
			t.Fatalf("cut at %d: expected error", cut)
		}
	}
}

func TestDecodeHostile(t *testing.T) {
	cases := map[string][]byte{
		"empty":              {},
		"unknown type":       {99},
		"zero type":          {0},
		"truncated hello":    {byte(TypeHello), Version, 1, 2, 3},
		"batch count lies":   append([]byte{byte(TypeBatch)}, 0xff, 0xff, 0x3f), // huge count, no events
		"batch bad kind":     {byte(TypeBatch), 1, 9},
		"alarm no func":      {byte(TypeAlarm), 1, 2, 3, 0, 1, 5},
		"trailing garbage":   {byte(TypeBye), 0},
		"helloack big batch": append([]byte{byte(TypeHelloAck), Version}, 0xff, 0xff, 0xff, 0xff, 0x7f),
		"string too long":    append([]byte{byte(TypeError), 1}, 0xff, 0xff, 0x7f),
		"ctx stack lies":     {byte(TypeAlarmCtx), 1, 0, 0xff, 0x7f},    // 16K stack frames, no bytes
		"ctx events lie":     {byte(TypeAlarmCtx), 1, 0, 0, 0xff, 0x1f}, // 4K events, no bytes
		"ctx bad kind":       {byte(TypeAlarmCtx), 1, 0, 0, 1, 9, 1, 1}, // event kind 9
		"ctx bsv truncated":  {byte(TypeAlarmCtx), 1, 0, 0, 0, 8, 1, 2}, // 8 BSV bytes, 2 present
		"ctx trailing":       {byte(TypeAlarmCtx), 1, 0, 0, 0, 0, 0xee}, // garbage after BSV
		"incident no func":   {byte(TypeIncident), 1, 1, 1, 1, 1, 1, 1, 1, 1, 5},
		"incident huge id":   append([]byte{byte(TypeIncident)}, 0xff, 0xff, 0xff, 0xff, 0x7f),
		"incident trailing":  {byte(TypeIncident), 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0xee},
		"imageget short":     append([]byte{byte(TypeImageGet)}, make([]byte, HashLen-1)...),
		"imageget trailing":  append([]byte{byte(TypeImageGet)}, make([]byte, HashLen+1)...),
		"imageblob no len":   append([]byte{byte(TypeImageBlob)}, make([]byte, HashLen)...),
		"imageblob lies":     append(append([]byte{byte(TypeImageBlob)}, make([]byte, HashLen)...), 0x80, 0x08), // 1K claimed, none present
		"imageblob too big":  append(append([]byte{byte(TypeImageBlob)}, make([]byte, HashLen)...), 0xff, 0xff, 0xff, 0x7f),
		"imagemissing short": {byte(TypeImageMissing), 1, 2, 3},
	}
	for name, payload := range cases {
		if _, err := Decode(payload); err == nil {
			t.Errorf("%s: Decode accepted hostile payload % x", name, payload)
		}
	}
}

// TestIncidentRoundTrip pins the Incident frame explicitly: generic
// Append, the no-boxing AppendIncident, and Decode must agree, and the
// encoders must refuse strings past MaxString.
func TestIncidentRoundTrip(t *testing.T) {
	in := Incident{
		ID: 3, ScoreMilli: 57_021, Alarms: 157, Folded: 12, Sessions: 3,
		Bursts: 1, PC: 0x10, FirstSeq: 1, LastSeq: 1048574, Func: "lib",
		Evidence: "157 alarm(s) across 3 session(s) at lib@0x10",
	}
	want := MustAppend(nil, in)
	got, err := AppendIncident([]byte{}, in)
	if err != nil {
		t.Fatalf("AppendIncident: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendIncident diverged from Append:\n got %x\nwant %x", got, want)
	}
	dec, err := Decode(want[4:])
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(dec, in) {
		t.Fatalf("round trip: got %#v want %#v", dec, in)
	}
	if _, err := AppendIncident(nil, Incident{Func: strings.Repeat("f", MaxString+1)}); err == nil {
		t.Fatal("AppendIncident accepted an oversized func name")
	}
	if _, err := AppendIncident(nil, Incident{Evidence: strings.Repeat("e", MaxString+1)}); err == nil {
		t.Fatal("AppendIncident accepted oversized evidence")
	}
}

// TestImageFrameRoundTrip pins the registry frames explicitly: Decode
// must invert Append for every shape, the blob decoder must copy its
// data out of the payload (a registry reuses its read buffer between
// requests), and the encoder must refuse blobs past MaxImageBlob.
func TestImageFrameRoundTrip(t *testing.T) {
	var h [HashLen]byte
	for i := range h {
		h[i] = byte(255 - i)
	}
	for _, f := range []Frame{
		ImageGet{Hash: h},
		ImageMissing{Hash: h},
		ImageBlob{Hash: h, Data: bytes.Repeat([]byte{0xab, 0x3c}, 700)},
		ImageBlob{Hash: h},
	} {
		enc := MustAppend(nil, f)
		dec, err := Decode(enc[4:])
		if err != nil {
			t.Fatalf("Decode(%v): %v", f.Type(), err)
		}
		want := f
		if b, ok := want.(ImageBlob); ok && b.Data == nil {
			want = ImageBlob{Hash: b.Hash} // empty blob round-trips to nil Data
		}
		if !reflect.DeepEqual(dec, want) {
			t.Fatalf("round trip %v: got %#v want %#v", f.Type(), dec, want)
		}
		if b, ok := dec.(ImageBlob); ok && len(b.Data) > 0 {
			// Mutating the encoded payload must not reach the decoded blob.
			enc[4+1+HashLen+2] ^= 0xff
			if b.Data[0] != 0xab {
				t.Fatal("decoded blob aliases the frame payload")
			}
		}
	}
	if _, err := Append(nil, ImageBlob{Data: make([]byte, MaxImageBlob+1)}); err == nil {
		t.Fatal("Append accepted an oversized image blob")
	}
	if enc, err := Append(nil, ImageBlob{Data: make([]byte, MaxImageBlob)}); err != nil {
		t.Fatalf("Append refused a MaxImageBlob-sized blob: %v", err)
	} else if _, err := Decode(enc[4:]); err != nil {
		t.Fatalf("Decode refused a MaxImageBlob-sized blob: %v", err)
	}
}

// TestDecodeNoOverAllocate feeds a batch header whose count field
// claims 2^16 events backed by no bytes; the decoder must refuse
// before sizing any slice from the count.
func TestDecodeNoOverAllocate(t *testing.T) {
	payload := []byte{byte(TypeBatch), 0x80, 0x80, 0x04} // uvarint 65536
	if _, err := Decode(payload); err == nil {
		t.Fatal("decoder accepted batch count with no backing bytes")
	}
	if !testing.Short() {
		allocs := testing.AllocsPerRun(100, func() {
			Decode(payload)
		})
		if allocs > 4 { // the fmt.Errorf value, never a 64K event slice
			t.Fatalf("hostile count cost %v allocs", allocs)
		}
	}
}

func TestAppendLimits(t *testing.T) {
	if _, err := Append(nil, Batch{Events: make([]Event, MaxBatch+1)}); err == nil {
		t.Error("Append accepted oversized batch")
	}
	if _, err := Append(nil, Error{Msg: strings.Repeat("x", MaxString+1)}); err == nil {
		t.Error("Append accepted oversized message")
	}
	if _, err := Append(nil, Hello{Program: strings.Repeat("p", MaxString+1)}); err == nil {
		t.Error("Append accepted oversized program name")
	}
}

func TestAppendBatchesSplits(t *testing.T) {
	evs := make([]Event, 2500)
	for i := range evs {
		evs[i] = Event{Kind: EvBranch, PC: uint64(i), Taken: i%2 == 0}
	}
	buf := AppendBatches(nil, evs, 1000)
	r := NewReader(bytes.NewReader(buf))
	var got []Event
	var frames int
	for {
		f, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		frames++
		got = append(got, f.(Batch).Events...)
	}
	if frames != 3 {
		t.Fatalf("got %d frames, want 3", frames)
	}
	if !reflect.DeepEqual(got, evs) {
		t.Fatal("split batches did not reassemble the event stream")
	}
}

// TestDecodeRandomNeverPanics is the in-tree sibling of FuzzDecode:
// random and randomly mutated valid frames must never panic the
// decoder.
func TestDecodeRandomNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	valid, _ := Append(nil, Batch{Events: []Event{
		{Kind: EvEnter, PC: 0x40}, {Kind: EvBranch, PC: 0x44, Taken: true},
	}})
	for i := 0; i < 20000; i++ {
		var payload []byte
		if i%2 == 0 {
			payload = make([]byte, rng.Intn(64))
			rng.Read(payload)
		} else {
			payload = append([]byte(nil), valid[4:]...)
			for j := 0; j < 1+rng.Intn(4); j++ {
				payload[rng.Intn(len(payload))] ^= byte(1 << rng.Intn(8))
			}
			if rng.Intn(2) == 0 && len(payload) > 1 {
				payload = payload[:rng.Intn(len(payload))]
			}
		}
		Decode(payload) // must not panic
	}
}

// TestEventPCVarintWidths pins the decoder's unrolled one- and
// two-byte uvarint fast paths against PCs needing every varint width,
// including the seams (0x7f/0x80, 0x3fff/0x4000) where the fast path
// hands off to the generic fallback.
func TestEventPCVarintWidths(t *testing.T) {
	pcs := []uint64{
		0, 1, 0x7f, // one byte
		0x80, 0x1234, 0x3fff, // two bytes
		0x4000, 0x1fffff, // three bytes
		0x200000, 0xfffffff, // four bytes
		1 << 35, 1 << 56, ^uint64(0), // wide
	}
	var evs []Event
	for i, pc := range pcs {
		evs = append(evs,
			Event{Kind: EvEnter, PC: pc},
			Event{Kind: EvBranch, PC: pc, Taken: i%2 == 0},
			Event{Kind: EvLeave})
	}
	enc := MustAppend(nil, Batch{Events: evs})
	got, err := Decode(enc[4:])
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(got, Batch{Events: evs}) {
		t.Fatalf("varint-width round trip diverged:\n got %#v\nwant %#v", got, evs)
	}

	// A continuation byte with nothing after it must fail, not read
	// past the payload: strip the final terminal byte of a wide PC.
	enc = MustAppend(nil, Batch{Events: []Event{{Kind: EvEnter, PC: 1 << 56}}})
	payload := enc[4 : len(enc)-1]
	if _, err := Decode(payload); err == nil {
		t.Fatal("Decode accepted a batch ending inside a varint PC")
	}
}

// TestAppendAlarmAckMatchAppend pins the no-boxing hot-path encoders
// to the generic Append byte for byte.
func TestAppendAlarmAckMatchAppend(t *testing.T) {
	al := Alarm{Seq: 912, PC: 0x7fffffff12, Func: "handle_cmd", Slot: 13, Expected: 2, Taken: true}
	want := MustAppend(nil, al)
	got, err := AppendAlarm([]byte{}, al)
	if err != nil {
		t.Fatalf("AppendAlarm: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendAlarm diverged from Append:\n got %x\nwant %x", got, want)
	}
	if _, err := AppendAlarm(nil, Alarm{Func: strings.Repeat("x", MaxString+1)}); err == nil {
		t.Fatal("AppendAlarm accepted an oversized func name")
	}

	ack := Ack{Events: 1 << 40}
	if got, want := AppendAck(nil, ack), MustAppend(nil, ack); !bytes.Equal(got, want) {
		t.Fatalf("AppendAck diverged from Append:\n got %x\nwant %x", got, want)
	}

	ctx := AlarmCtx{
		Seq:      912,
		Recorded: 77,
		Stack:    []CtxFrame{{Base: 0x40, Func: "main"}},
		Recent:   []CtxEvent{{Kind: EvBranch, Seq: 912, PC: 0x4a, Depth: 1, Taken: true}},
		BSV:      []uint8{1, 0},
	}
	want = MustAppend(nil, ctx)
	got, err = AppendAlarmCtx([]byte{}, ctx)
	if err != nil {
		t.Fatalf("AppendAlarmCtx: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendAlarmCtx diverged from Append:\n got %x\nwant %x", got, want)
	}
	if _, err := AppendAlarmCtx(nil, AlarmCtx{Recent: make([]CtxEvent, MaxCtxEvents+1)}); err == nil {
		t.Fatal("AppendAlarmCtx accepted an oversized event window")
	}
	if _, err := AppendAlarmCtx(nil, AlarmCtx{Stack: make([]CtxFrame, MaxCtxStack+1)}); err == nil {
		t.Fatal("AppendAlarmCtx accepted an oversized stack summary")
	}
	if _, err := AppendAlarmCtx(nil, AlarmCtx{BSV: make([]uint8, MaxCtxBSV+1)}); err == nil {
		t.Fatal("AppendAlarmCtx accepted an oversized BSV snapshot")
	}
}

// TestAppendAlarmAckNoAlloc holds the hot-path encoders to zero
// allocations once the destination has capacity.
func TestAppendAlarmAckNoAlloc(t *testing.T) {
	al := Alarm{Seq: 1, PC: 0x1234, Func: "f", Slot: 3, Expected: 1}
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(100, func() {
		b, err := AppendAlarm(buf, al)
		if err != nil || len(b) == 0 {
			t.Fatal("AppendAlarm failed")
		}
		b = AppendAck(b[:0], Ack{Events: 99})
		_ = b
	}); n != 0 {
		t.Fatalf("alarm+ack encode allocates %v times per run, want 0", n)
	}
}

// trickle is a connection that hands out queued chunks one Read at a
// time and reports errWouldBlock — a stand-in for a read deadline
// firing — when none is queued, counting every Read that reaches it.
type trickle struct {
	chunks [][]byte
	reads  int
}

var errWouldBlock = errors.New("would block")

func (t *trickle) Read(p []byte) (int, error) {
	t.reads++
	if len(t.chunks) == 0 {
		return 0, errWouldBlock
	}
	n := copy(p, t.chunks[0])
	if t.chunks[0] = t.chunks[0][n:]; len(t.chunks[0]) == 0 {
		t.chunks = t.chunks[1:]
	}
	return n, nil
}

// TestReaderFrameBuffered holds FrameBuffered to its contract over
// random chunkings of a frame stream, including frames split across
// fills and reads resumed after an interrupted header or payload: when
// it reports true the next Next completes without reading the
// connection, and when it reports false the next Next has to read it.
func TestReaderFrameBuffered(t *testing.T) {
	var stream []byte
	frames := sampleFrames()
	for _, f := range frames {
		stream = MustAppend(stream, f)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		var chunks [][]byte
		for rest := stream; len(rest) > 0; {
			n := min(1+rng.Intn(120), len(rest))
			chunks, rest = append(chunks, rest[:n]), rest[n:]
		}
		src := &trickle{}
		r := NewReader(src)
		for got := 0; got < len(frames); {
			buffered := r.FrameBuffered()
			before := src.reads
			f, err := r.Next()
			read := src.reads != before
			if buffered && (err != nil || read) {
				t.Fatalf("trial %d frame %d: FrameBuffered but Next read=%v err=%v", trial, got, read, err)
			}
			if !buffered && !read {
				t.Fatalf("trial %d frame %d: FrameBuffered false but Next never read", trial, got)
			}
			if errors.Is(err, errWouldBlock) {
				src.chunks, chunks = append(src.chunks, chunks[0]), chunks[1:]
				continue
			}
			if err != nil {
				t.Fatalf("trial %d frame %d: %v", trial, got, err)
			}
			if f.Type() != frames[got].Type() {
				t.Fatalf("trial %d frame %d: got %v want %v", trial, got, f.Type(), frames[got].Type())
			}
			got++
		}
	}
}
