package wire

import (
	"bytes"
	"io"
	"reflect"
	"testing"
)

// buildStream encodes n batch frames of varying sizes (so the reader's
// frame buffer sees oscillating payload lengths) into one byte stream.
func buildStream(tb testing.TB, n int) []byte {
	tb.Helper()
	var stream []byte
	var err error
	for i := 0; i < n; i++ {
		evs := make([]Event, 0, 8)
		evs = append(evs, Event{Kind: EvEnter, PC: 0x1000})
		for j := 0; j < 1+i%7; j++ {
			evs = append(evs, Event{Kind: EvBranch, PC: 0x1000 + uint64(4*j), Taken: j%2 == 0})
		}
		evs = append(evs, Event{Kind: EvLeave})
		stream, err = Append(stream, Batch{Events: evs})
		if err != nil {
			tb.Fatalf("Append: %v", err)
		}
	}
	return stream
}

// TestReaderStreamDoesNotAllocPerFrame is the Reader buffer-churn
// regression gate: decoding a 10k-frame stream through NextInto must
// reuse the frame buffer and the caller's event slice, settling into
// (amortised) zero allocations per frame.
func TestReaderStreamDoesNotAllocPerFrame(t *testing.T) {
	const frames = 10000
	stream := buildStream(t, frames)
	src := bytes.NewReader(stream)
	rd := NewReader(src)
	var batch Batch

	allocs := testing.AllocsPerRun(1, func() {
		src.Reset(stream)
		// The Reader keeps its buffer across resets; only the bufio fill
		// path sees the new source.
		for {
			f, err := rd.NextInto(&batch)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("NextInto: %v", err)
			}
			if f.Type() != TypeBatch {
				t.Fatalf("unexpected %v frame", f.Type())
			}
		}
	})
	// Budget: far under one allocation per frame. The warm run performs
	// none, but AllocsPerRun rounds scheduling noise up.
	if allocs > 8 {
		t.Fatalf("decoding %d frames cost %.0f allocations (want ~0, i.e. none per frame)", frames, allocs)
	}
}

// TestDecodeBatchIntoMatchesDecode holds the reusing decoder to the
// allocating one, including capacity reuse across calls.
func TestDecodeBatchIntoMatchesDecode(t *testing.T) {
	var b Batch
	for _, f := range sampleFrames() {
		enc, err := Append(nil, f)
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		payload := enc[4:]
		want, err := Decode(payload)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		if want.Type() != TypeBatch {
			if err := DecodeBatchInto(payload, &b); err == nil {
				t.Errorf("DecodeBatchInto accepted a %v frame", want.Type())
			}
			continue
		}
		if err := DecodeBatchInto(payload, &b); err != nil {
			t.Fatalf("DecodeBatchInto: %v", err)
		}
		wb := want.(Batch)
		if b.TraceID != wb.TraceID || b.OriginNs != wb.OriginNs {
			t.Errorf("DecodeBatchInto trace = (%d, %d), want (%d, %d)",
				b.TraceID, b.OriginNs, wb.TraceID, wb.OriginNs)
		}
		if len(wb.Events) == 0 && len(b.Events) == 0 {
			continue
		}
		if !reflect.DeepEqual(b.Events, wb.Events) {
			t.Errorf("DecodeBatchInto = %+v, want %+v", b.Events, wb.Events)
		}
	}
}

// TestDecodeBatchIntoHostile mirrors the hostile-input contract of
// Decode for the reusing entry point.
func TestDecodeBatchIntoHostile(t *testing.T) {
	var b Batch
	cases := [][]byte{
		nil,
		{byte(TypeBatch)},
		{byte(TypeBatch), 0xff, 0xff, 0xff, 0xff, 0x7f}, // absurd count
		{byte(TypeBatch), 2, 0},                         // count exceeds payload
		{byte(TypeBatch), 1, 9},                         // unknown event kind
		{byte(TypeBatch), 1, 1, 1},                      // trace extension tag, no id
		{byte(TypeBatch), 1, 1, 1, 0},                   // trace extension with zero id
		{byte(TypeBatch), 1, 1, 1, 5},                   // trace extension id but no origin
		{byte(TypeAck), 1},                              // wrong frame type
	}
	for _, payload := range cases {
		if err := DecodeBatchInto(payload, &b); err == nil {
			t.Errorf("DecodeBatchInto(%v) accepted hostile input", payload)
		}
	}
}

// TestNextIntoMixedFrames checks that non-batch frames still arrive
// intact through the NextInto fast path.
func TestNextIntoMixedFrames(t *testing.T) {
	var stream []byte
	for _, f := range sampleFrames() {
		var err error
		stream, err = Append(stream, f)
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	rd := NewReader(bytes.NewReader(stream))
	var b Batch
	for _, want := range sampleFrames() {
		f, err := rd.NextInto(&b)
		if err != nil {
			t.Fatalf("NextInto: %v", err)
		}
		if f.Type() != want.Type() {
			t.Fatalf("frame type = %v, want %v", f.Type(), want.Type())
		}
		if want.Type() == TypeBatch {
			wantEvs := want.(Batch).Events
			got := f.(*Batch).Events
			if len(got) != len(wantEvs) {
				t.Fatalf("batch events = %d, want %d", len(got), len(wantEvs))
			}
			for i := range got {
				if got[i] != wantEvs[i] {
					t.Fatalf("event %d = %+v, want %+v", i, got[i], wantEvs[i])
				}
			}
		} else if !reflect.DeepEqual(f, want) {
			t.Fatalf("frame = %+v, want %+v", f, want)
		}
	}
	if _, err := rd.NextInto(&b); err != io.EOF {
		t.Fatalf("tail = %v, want io.EOF", err)
	}
}

// TestDecodeAlarmIntoDoesNotAlloc holds the client's alarm decode to
// zero allocations: no Frame boxing, and the name aliases the payload.
func TestDecodeAlarmIntoDoesNotAlloc(t *testing.T) {
	enc, err := Append(nil, Alarm{Seq: 1 << 33, PC: 0x4a, Func: "handle_cmd", Slot: 9, Expected: 2, Taken: true})
	if err != nil {
		t.Fatal(err)
	}
	var a Alarm
	allocs := testing.AllocsPerRun(100, func() {
		fn, err := DecodeAlarmInto(enc[4:], &a)
		if err != nil || string(fn) != "handle_cmd" {
			t.Fatalf("DecodeAlarmInto = %q, %v", fn, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("DecodeAlarmInto allocates %.1f times per alarm, want 0", allocs)
	}
}

// TestDecodeAckIntoDoesNotAlloc holds the client's Ack decode to zero
// allocations: an Ack boxed into a Frame costs one per verified batch.
func TestDecodeAckIntoDoesNotAlloc(t *testing.T) {
	enc, err := Append(nil, Ack{Events: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	var a Ack
	allocs := testing.AllocsPerRun(100, func() {
		if err := DecodeAckInto(enc[4:], &a); err != nil || a.Events != 1<<40 {
			t.Fatalf("DecodeAckInto = %+v, %v", a, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("DecodeAckInto allocates %.1f times per ack, want 0", allocs)
	}
}
