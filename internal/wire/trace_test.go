package wire

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"
)

// TestBatchTraceRoundTrip pins the trace-extended Batch encoding: the
// extension survives Decode and DecodeBatchInto, and an untraced batch
// encodes byte-identically to the pre-extension protocol (the
// zero-cost default the serve path's alloc gate depends on).
func TestBatchTraceRoundTrip(t *testing.T) {
	evs := []Event{
		{Kind: EvEnter, PC: 0x40},
		{Kind: EvBranch, PC: 0x4a, Taken: true},
		{Kind: EvLeave},
	}
	traced := Batch{Events: evs, TraceID: 0x1234_5678_9abc, OriginNs: 1_700_000_000_000_000_001}
	enc := MustAppend(nil, traced)
	got, err := Decode(enc[4:])
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(got, traced) {
		t.Fatalf("round trip: got %#v want %#v", got, traced)
	}

	var reused Batch
	if err := DecodeBatchInto(enc[4:], &reused); err != nil {
		t.Fatalf("DecodeBatchInto: %v", err)
	}
	if reused.TraceID != traced.TraceID || reused.OriginNs != traced.OriginNs {
		t.Fatalf("DecodeBatchInto trace = (%d, %d), want (%d, %d)",
			reused.TraceID, reused.OriginNs, traced.TraceID, traced.OriginNs)
	}

	// Untraced batches must not pay a byte: the encoding is identical
	// to a pre-extension sender's.
	plain := MustAppend(nil, Batch{Events: evs})
	var manual []byte
	manual = append(manual, byte(TypeBatch), 3)
	manual = append(manual, evEnter, 0x40, evBranchTaken, 0x4a, evLeave)
	if !bytes.Equal(plain[4:], manual) {
		t.Fatalf("untraced batch encoding changed:\n got %x\nwant %x", plain[4:], manual)
	}

	// Decoding an untraced frame into a previously-traced Batch must
	// reset the trace fields — the reader reuses one leased Batch.
	if err := DecodeBatchInto(plain[4:], &reused); err != nil {
		t.Fatalf("DecodeBatchInto(untraced): %v", err)
	}
	if reused.TraceID != 0 || reused.OriginNs != 0 {
		t.Fatalf("stale trace context survived reuse: (%d, %d)", reused.TraceID, reused.OriginNs)
	}
}

// TestBatchTraceExtensionSkipped pins the forward-compatibility valve:
// a decoder that does not understand an extension tag must still
// accept the events — so a future sender can extend the frame without
// breaking this receiver, exactly as this PR's traced sender relies on
// receivers skipping what they don't know.
func TestBatchTraceExtensionSkipped(t *testing.T) {
	payload := []byte{byte(TypeBatch), 2, evEnter, 0x40, evLeave,
		0x7e /* unknown tag */, 0xde, 0xad, 0xbe, 0xef}
	got, err := Decode(payload)
	if err != nil {
		t.Fatalf("Decode refused an unknown extension: %v", err)
	}
	b := got.(Batch)
	if len(b.Events) != 2 || b.TraceID != 0 || b.OriginNs != 0 {
		t.Fatalf("unknown extension leaked into the frame: %#v", b)
	}

	// Bytes behind a decoded trace block are also extension area.
	payload = []byte{byte(TypeBatch), 1, evLeave, batchExtTrace, 9, 11, 0xff, 0x00}
	got, err = Decode(payload)
	if err != nil {
		t.Fatalf("Decode refused bytes behind the trace block: %v", err)
	}
	b = got.(Batch)
	if b.TraceID != 9 || b.OriginNs != 11 {
		t.Fatalf("trace block misdecoded: %#v", b)
	}
}

// TestBatchTraceHostile pins total decoding of the extension on
// hostile input: truncated blocks and the non-canonical zero id are
// refused, for both decode entry points.
func TestBatchTraceHostile(t *testing.T) {
	cases := map[string][]byte{
		"tag only":         {byte(TypeBatch), 1, evLeave, batchExtTrace},
		"zero id":          {byte(TypeBatch), 1, evLeave, batchExtTrace, 0},
		"id, no origin":    {byte(TypeBatch), 1, evLeave, batchExtTrace, 5},
		"truncated id":     {byte(TypeBatch), 1, evLeave, batchExtTrace, 0xff},
		"truncated origin": {byte(TypeBatch), 1, evLeave, batchExtTrace, 5, 0x80},
	}
	var b Batch
	for name, payload := range cases {
		if _, err := Decode(payload); err == nil {
			t.Errorf("%s: Decode accepted hostile payload % x", name, payload)
		}
		if err := DecodeBatchInto(payload, &b); err == nil {
			t.Errorf("%s: DecodeBatchInto accepted hostile payload % x", name, payload)
		}
	}
}

// TestStampBatch pins the pre-encoded stamping path: stamping an
// untraced Batch frame yields exactly the bytes Append produces for
// the same batch with the trace fields set, at every size up to
// MaxBatch, without writing the source frame.
func TestStampBatch(t *testing.T) {
	const id, origin = 0x1234_5678_9abc, 1_700_000_000_000_000_001
	for _, n := range []int{0, 1, 512, MaxBatch} {
		evs := make([]Event, n)
		for i := range evs {
			evs[i] = Event{Kind: EvBranch, PC: uint64(0x40 + i%300), Taken: i%2 == 0}
		}
		frame := MustAppend(nil, Batch{Events: evs})
		if n > 0 {
			frame = AppendBatches(nil, evs, n)
		}
		saved := bytes.Clone(frame)
		dst := []byte{0xaa}
		got, err := StampBatch(dst, frame, id, origin)
		if err != nil {
			t.Fatalf("%d events: %v", n, err)
		}
		want := MustAppend([]byte{0xaa}, Batch{Events: evs, TraceID: id, OriginNs: origin})
		if !bytes.Equal(got, want) {
			t.Fatalf("%d events: StampBatch differs from Append of the traced batch", n)
		}
		if !bytes.Equal(frame, saved) {
			t.Fatalf("%d events: StampBatch wrote into its source frame", n)
		}
	}

	batch := MustAppend(nil, Batch{Events: []Event{{Kind: EvLeave}}})
	mismatch := bytes.Clone(batch)
	mismatch[0]++
	huge := make([]byte, 4+MaxFrame-2) // a Batch payload 2 bytes short of MaxFrame
	binary.LittleEndian.PutUint32(huge, MaxFrame-2)
	huge[4] = byte(TypeBatch)
	cases := []struct {
		name  string
		frame []byte
		id    uint64
		why   string
	}{
		{"non-batch type", MustAppend(nil, Ack{Events: 1}), id, "Batch frame"},
		{"truncated header", batch[:4], id, "Batch frame"},
		{"prefix over the bytes", mismatch, id, "disagrees"},
		{"prefix short of the bytes", append(bytes.Clone(batch), 0), id, "disagrees"},
		{"zero id", batch, 0, "zero trace id"},
		{"result past MaxFrame", huge, id, "exceeds MaxFrame"},
	}
	for _, tc := range cases {
		_, err := StampBatch(nil, tc.frame, tc.id, origin)
		if err == nil || !strings.Contains(err.Error(), tc.why) {
			t.Errorf("%s: StampBatch error %v, want one naming %q", tc.name, err, tc.why)
		}
	}
}
