package tcache

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/tables"
	"repro/internal/workload"
)

// workloadBlobs compiles every workload function and returns each
// function with its cache blob.
func workloadBlobs(tb testing.TB) ([]*ir.Func, [][]byte) {
	tb.Helper()
	var (
		fns   []*ir.Func
		blobs [][]byte
	)
	for _, w := range workload.All() {
		prog, al := lower(tb, w.Source)
		for _, fn := range prog.Funcs {
			ft := core.BuildFunc(prog, al, fn, core.Config{})
			fi, err := tables.EncodeFunc(ft)
			if err != nil {
				tb.Fatalf("%s.%s: %v", w.Name, fn.Name, err)
			}
			fns = append(fns, fn)
			blobs = append(blobs, EncodeBlob(fi, ft))
		}
	}
	return fns, blobs
}

// FuzzDecodeBlob feeds DecodeBlob arbitrary bytes against a workload
// function (chosen by k), seeded with every workload function's own
// blob. DecodeBlob must not panic or hang, and every blob it accepts
// must re-encode byte-identically: the disk tier holds only canonical
// blobs.
func FuzzDecodeBlob(f *testing.F) {
	fns, blobs := workloadBlobs(f)
	for k, b := range blobs {
		f.Add(uint16(k), b)
	}
	f.Fuzz(func(t *testing.T, k uint16, blob []byte) {
		fn := fns[int(k)%len(fns)]
		fi, ft, err := DecodeBlob(blob, fn)
		if err != nil {
			return
		}
		if again := EncodeBlob(fi, ft); !bytes.Equal(again, blob) {
			t.Fatalf("%s: accepted blob re-encodes differently:\n got %x\nwant %x", fn.Name, again, blob)
		}
	})
}

// TestDecodeBlobRejectsNonCanonical holds DecodeBlob to EncodeBlob's
// canonical form on a workload blob with several checked branches and
// events.
func TestDecodeBlobRejectsNonCanonical(t *testing.T) {
	fns, blobs := workloadBlobs(t)
	var (
		fn              *ir.Func
		blob            []byte
		checked, events int
	)
	for k, b := range blobs {
		c := 8 + int(binary.LittleEndian.Uint32(b[4:]))
		e := c + 4 + 4*int(binary.LittleEndian.Uint32(b[c:]))
		if binary.LittleEndian.Uint32(b[c:]) >= 2 && binary.LittleEndian.Uint32(b[e:]) >= 2 {
			fn, blob, checked, events = fns[k], b, c, e
			break
		}
	}
	if fn == nil {
		t.Fatal("no workload function has two checked branches and two events")
	}
	if _, _, err := DecodeBlob(blob, fn); err != nil {
		t.Fatal(err)
	}
	edit := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), blob...)) }
	for name, bad := range map[string][]byte{
		"trailing byte": append(append([]byte(nil), blob...), 0),
		"repeated checked branch": edit(func(b []byte) []byte {
			copy(b[checked+8:], b[checked+4:checked+8])
			return b
		}),
		"unsorted events": edit(func(b []byte) []byte {
			// Swap the first event's branch id with a larger one.
			binary.LittleEndian.PutUint32(b[events+4:], uint32(len(fn.Instrs)-1))
			return b
		}),
		"update count past the blob": edit(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[events+12:], 1<<30)
			return b
		}),
	} {
		if _, _, err := DecodeBlob(bad, fn); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
