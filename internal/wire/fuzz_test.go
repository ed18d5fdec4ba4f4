package wire

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

// FuzzDecode is the native fuzz target behind `go test -fuzz=FuzzDecode
// ./internal/wire` (`make fuzz-gate` runs it from the committed seeds
// under testdata/fuzz). Properties: Decode never panics, never
// over-allocates past the payload size, and every accepted frame
// re-encodes to a payload that decodes to the same frame (canonical
// form fixed point), every accepted untraced Batch, once stamped with
// StampBatch, decodes to the same events plus the stamp, and the
// boxing-free decoders (DecodeBatchInto, DecodeAlarmInto,
// DecodeAckInto) give Decode's verdict and fields on every payload.
func FuzzDecode(f *testing.F) {
	for _, fr := range sampleFrames() {
		enc, err := Append(nil, fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc[4:])
	}
	f.Add([]byte{byte(TypeBatch), 0x80, 0x80, 0x04})
	f.Add([]byte{})
	// Trace-extension shapes: a traced batch, an unknown extension tag
	// (skipped, not refused), and truncated/zero-id hostile variants.
	f.Add([]byte{byte(TypeBatch), 1, 1, batchExtTrace, 5, 7})
	f.Add([]byte{byte(TypeBatch), 1, 1, 0xee, 1, 2, 3})
	f.Add([]byte{byte(TypeBatch), 1, 1, batchExtTrace})
	f.Add([]byte{byte(TypeBatch), 1, 1, batchExtTrace, 0})

	f.Fuzz(func(t *testing.T, payload []byte) {
		fr, err := Decode(payload)

		// Decode's batch arm is DecodeBatchInto over a fresh Batch; into
		// a reused one holding a previous frame's events and stamp it
		// must agree with Decode: same verdict, same events, same stamp.
		reused := Batch{Events: make([]Event, 3, 8), TraceID: 99, OriginNs: 5}
		intoErr := DecodeBatchInto(payload, &reused)
		if len(payload) > 0 && FrameType(payload[0]) == TypeBatch && len(payload) <= MaxFrame {
			if (err == nil) != (intoErr == nil) {
				t.Fatalf("Decode err=%v but DecodeBatchInto err=%v", err, intoErr)
			}
			if err == nil {
				wb := fr.(Batch)
				want := wb.Events
				if len(want) != len(reused.Events) {
					t.Fatalf("DecodeBatchInto decoded %d events, Decode %d", len(reused.Events), len(want))
				}
				for i := range want {
					if want[i] != reused.Events[i] {
						t.Fatalf("event %d: DecodeBatchInto %+v, Decode %+v", i, reused.Events[i], want[i])
					}
				}
				if reused.TraceID != wb.TraceID || reused.OriginNs != wb.OriginNs {
					t.Fatalf("DecodeBatchInto trace (%d, %d), Decode (%d, %d)",
						reused.TraceID, reused.OriginNs, wb.TraceID, wb.OriginNs)
				}
			}
		} else if intoErr == nil {
			t.Fatalf("DecodeBatchInto accepted a non-batch payload")
		}

		// DecodeAlarmInto likewise on every alarm payload: same verdict,
		// same fields, and the aliased name holds Decode's Func bytes.
		var al Alarm
		fn, alarmErr := DecodeAlarmInto(payload, &al)
		if len(payload) > 0 && FrameType(payload[0]) == TypeAlarm {
			if (err == nil) != (alarmErr == nil) {
				t.Fatalf("Decode err=%v but DecodeAlarmInto err=%v", err, alarmErr)
			}
			if err == nil {
				want := fr.(Alarm)
				if string(fn) != want.Func {
					t.Fatalf("DecodeAlarmInto name %q, Decode %q", fn, want.Func)
				}
				if al.Func != "" {
					t.Fatalf("DecodeAlarmInto set Func %q; the name belongs in fn", al.Func)
				}
				al.Func = want.Func
				if al != want {
					t.Fatalf("DecodeAlarmInto %+v, Decode %+v", al, want)
				}
			}
		} else if alarmErr == nil {
			t.Fatalf("DecodeAlarmInto accepted a non-alarm payload")
		}

		// DecodeAckInto likewise on every ack payload: same verdict and
		// the same count.
		var ack Ack
		ackErr := DecodeAckInto(payload, &ack)
		if len(payload) > 0 && FrameType(payload[0]) == TypeAck {
			if (err == nil) != (ackErr == nil) {
				t.Fatalf("Decode err=%v but DecodeAckInto err=%v", err, ackErr)
			}
			if err == nil && ack != fr.(Ack) {
				t.Fatalf("DecodeAckInto %+v, Decode %+v", ack, fr)
			}
		} else if ackErr == nil {
			t.Fatalf("DecodeAckInto accepted a non-ack payload")
		}

		if err != nil {
			return
		}
		// A stamped copy of an accepted untraced Batch — one whose
		// events end the payload, so no extension area precedes the
		// stamp — decodes to the same events plus the stamp.
		if wb, ok := fr.(Batch); ok && wb.TraceID == 0 {
			d := decoder{b: payload[1:]}
			if _, err := d.events(nil); err == nil && d.off == len(d.b) {
				frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
				stamped, err := StampBatch(nil, append(frame, payload...), 7, 11)
				if err != nil {
					t.Fatalf("StampBatch refused an accepted untraced batch: %v", err)
				}
				got, err := Decode(stamped[4:])
				if err != nil {
					t.Fatalf("stamped batch does not decode: %v", err)
				}
				if want := (Batch{Events: wb.Events, TraceID: 7, OriginNs: 11}); !reflect.DeepEqual(got, want) {
					t.Fatalf("stamped batch decodes to %#v, want %#v", got, want)
				}
			}
		}
		enc, err := Append(nil, fr)
		if err != nil {
			t.Fatalf("decoded frame %v does not re-encode: %v", fr.Type(), err)
		}
		again, err := Decode(enc[4:])
		if err != nil {
			t.Fatalf("re-encoded frame %v does not decode: %v", fr.Type(), err)
		}
		if !reflect.DeepEqual(fr, again) {
			t.Fatalf("decode/encode/decode not a fixed point: %#v vs %#v", fr, again)
		}
		// Canonical senders produce canonical bytes; a decoded frame
		// whose re-encoding is *shorter* than the input reveals a
		// redundant encoding the decoder should have refused (e.g.
		// non-minimal varints are tolerated, so only assert same-frame
		// equality, not byte equality, for fuzz inputs).
		_ = bytes.Equal(enc[4:], payload)
	})
}
