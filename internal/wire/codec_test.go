package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
	"unsafe"
)

// TestEventLayout pins Event at 16 bytes: PC first, then the two
// one-byte fields sharing its trailing word. A field edit that brings
// back the padding (Kind before PC costs 24) fails here.
func TestEventLayout(t *testing.T) {
	if n := unsafe.Sizeof(Event{}); n != 16 {
		t.Fatalf("Event is %d bytes, want 16", n)
	}
}

// refKinds maps a Batch event's wire code to its kind for the
// reference decoder; codes past evBranchNotTaken are refused.
var refKinds = [...]EventKind{evEnter: EvEnter, evLeave: EvLeave, evBranchTaken: EvBranch, evBranchNotTaken: EvBranch}

// refDecodeBatch is a reference Batch decoder written directly from
// the format — uvarint count, then per event a kind byte and (all
// kinds but leave) a binary.Uvarint PC, then the optional extension
// area — with none of the production decoder's fast paths. It decodes
// body (the payload behind the type byte) into evs[:0] and reports
// whether the frame is accepted.
func refDecodeBatch(body []byte, evs []Event) (out []Event, tid, origin uint64, ok bool) {
	n, m := binary.Uvarint(body)
	if m <= 0 || n > MaxBatch || n > uint64(len(body)-m) {
		return nil, 0, 0, false
	}
	body = body[m:]
	out = evs[:0]
	for ; n > 0; n-- {
		if len(body) == 0 || int(body[0]) >= len(refKinds) {
			return nil, 0, 0, false
		}
		k := body[0]
		body = body[1:]
		ev := Event{Kind: refKinds[k], Taken: k == evBranchTaken}
		if k != evLeave {
			if ev.PC, m = binary.Uvarint(body); m <= 0 {
				return nil, 0, 0, false
			}
			body = body[m:]
		}
		out = append(out, ev)
	}
	if len(body) > 0 && body[0] == batchExtTrace {
		id, m := binary.Uvarint(body[1:])
		if m <= 0 || id == 0 {
			return nil, 0, 0, false
		}
		o, m2 := binary.Uvarint(body[1+m:])
		if m2 <= 0 {
			return nil, 0, 0, false
		}
		tid, origin = id, o
	}
	return out, tid, origin, true
}

// TestDecodeBatchExhaustive drives every 3-byte window through
// DecodeBatchInto as a one-event batch body — the window holds the
// event, where the 3-byte branch fast path fires, and the extension
// area behind it — and holds it to the reference decoder: the same
// verdict, the same events, the same trace stamp. Windows opening with
// a valid kind byte also run behind counts 2 and 3, so the events after
// a one-byte leave decode from the window's tail; any other kind byte
// refuses the frame whatever the count.
func TestDecodeBatchExhaustive(t *testing.T) {
	payload := []byte{byte(TypeBatch), 0, 0, 0, 0}
	var got Batch
	var want [3]Event
	for w := 0; w < 1<<24; w++ {
		payload[2], payload[3], payload[4] = byte(w), byte(w>>8), byte(w>>16)
		counts := byte(1)
		if payload[2] <= evBranchNotTaken {
			counts = 3
		}
		for count := byte(1); count <= counts; count++ {
			payload[1] = count
			err := DecodeBatchInto(payload, &got)
			ref, tid, origin, ok := refDecodeBatch(payload[1:], want[:])
			if (err == nil) != ok {
				t.Fatalf("window %06x count %d: DecodeBatchInto err=%v, reference accepts=%v", w, count, err, ok)
			}
			if !ok {
				continue
			}
			if len(got.Events) != len(ref) || got.TraceID != tid || got.OriginNs != origin {
				t.Fatalf("window %06x count %d: decoded %+v, reference %+v (trace %d/%d)", w, count, got, ref, tid, origin)
			}
			for i := range ref {
				if got.Events[i] != ref[i] {
					t.Fatalf("window %06x count %d: event %d %+v, reference %+v", w, count, i, got.Events[i], ref[i])
				}
			}
		}
	}
}

// refAppendBatch is a reference Batch encoder written directly from
// the format with binary.AppendUvarint, with none of the production
// encoder's fast paths.
func refAppendBatch(evs []Event) []byte {
	p := binary.AppendUvarint([]byte{byte(TypeBatch)}, uint64(len(evs)))
	for _, ev := range evs {
		switch {
		case ev.Kind == EvLeave:
			p = append(p, evLeave)
			continue
		case ev.Kind == EvEnter:
			p = append(p, evEnter)
		case ev.Taken:
			p = append(p, evBranchTaken)
		default:
			p = append(p, evBranchNotTaken)
		}
		p = binary.AppendUvarint(p, ev.PC)
	}
	return append(binary.LittleEndian.AppendUint32(nil, uint32(len(p))), p...)
}

// TestAppendBatchMatchesReference holds the encoder byte-identical to
// the reference around every uvarint length edge the 3-byte branch
// fast path borders, for both directions and the non-branch kinds,
// one event per frame and all of them in one frame.
func TestAppendBatchMatchesReference(t *testing.T) {
	var all []Event
	for _, pc := range []uint64{0, 127, 128, 16383, 16384, 1 << 32, 1 << 63} {
		for _, ev := range []Event{
			{PC: pc, Kind: EvBranch, Taken: true},
			{PC: pc, Kind: EvBranch},
			{PC: pc, Kind: EvEnter},
			{Kind: EvLeave},
		} {
			all = append(all, ev)
			got, err := Append(nil, Batch{Events: []Event{ev}})
			if err != nil {
				t.Fatal(err)
			}
			if want := refAppendBatch([]Event{ev}); !bytes.Equal(got, want) {
				t.Errorf("%+v encodes as % x, reference % x", ev, got, want)
			}
			var back Batch
			if err := DecodeBatchInto(got[4:], &back); err != nil || len(back.Events) != 1 || back.Events[0] != ev {
				t.Errorf("%+v decodes back as %+v (err %v)", ev, back.Events, err)
			}
		}
	}
	got, err := Append(nil, Batch{Events: all})
	if err != nil {
		t.Fatal(err)
	}
	if want := refAppendBatch(all); !bytes.Equal(got, want) {
		t.Errorf("combined frame encodes as % x, reference % x", got, want)
	}
}
