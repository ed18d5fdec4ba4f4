//go:build ignore

// genfuzzcorpus regenerates internal/wire's checked-in fuzz seed
// corpus (testdata/fuzz/FuzzDecode), and internal/tables' FuzzUnmarshal
// corpus (see tableSeeds). The native seeds in wire's fuzz_test.go
// cover whatever sampleFrames covers at HEAD; the checked-in corpus
// pins the frame kinds that earned dedicated fuzzing attention —
// the AlarmCtx forensic frame and the Incident summary frame, whose
// nested counts and string fields carry the most decoder edge cases,
// (PR 8) the registry frames, whose length-prefixed blob is the
// largest attacker-controlled allocation in the protocol, and (PR 10)
// trace-extended Batch frames, whose trailing extension area is the
// protocol's forward-compatibility valve, and Alarm frames with an
// empty and a MaxString-long function name, the bounds of the name
// slice DecodeAlarmInto hands back. Run from the repo root:
//
//	go run scripts/genfuzzcorpus.go
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/internal/tables"
	"repro/internal/wire"
	"repro/internal/workload"
)

// hash fills a content hash with a recognisable byte pattern.
func hash(seed byte) (h [wire.HashLen]byte) {
	for i := range h {
		h[i] = seed + byte(i)
	}
	return h
}

func main() {
	dir := filepath.Join("internal", "wire", "testdata", "fuzz", "FuzzDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	seeds := map[string]wire.Frame{
		"seed-alarmctx-full": wire.AlarmCtx{
			Seq:      912,
			Recorded: 5000,
			Stack:    []wire.CtxFrame{{Base: 0x40, Func: "main"}, {Base: 0x90, Func: "handle_cmd"}, {Base: 0x200}},
			Recent: []wire.CtxEvent{
				{Kind: wire.EvEnter, Seq: 900, PC: 0x90, Depth: 2},
				{Kind: wire.EvBranch, Seq: 901, PC: 0x9a, Depth: 2, Taken: true},
				{Kind: wire.EvSpill, Seq: 901, PC: 4096, Depth: 2},
				{Kind: wire.EvFill, Seq: 905, PC: 4096, Depth: 1},
				{Kind: wire.EvLeave, Seq: 910, Depth: 1},
				{Kind: wire.EvBranch, Seq: 912, PC: 0x7fffffff12, Depth: 1},
			},
			BSV: []uint8{0, 1, 2, 0, 3, 3},
		},
		"seed-alarmctx-empty": wire.AlarmCtx{Seq: 1},
		"seed-alarmctx-deep": wire.AlarmCtx{
			Seq:      1 << 60,
			Recorded: ^uint64(0),
			Stack:    []wire.CtxFrame{{Base: ^uint64(0), Func: "f"}},
			BSV:      make([]uint8, 256),
		},
		"seed-incident-full": wire.Incident{
			ID: 1, ScoreMilli: 144_250, Alarms: 69632, Folded: 69000,
			Sessions: 4, Bursts: 4, PC: 0x7fffffff12,
			FirstSeq: 524288, LastSeq: 1 << 20, Func: "handle_cmd",
			Evidence: "69632 alarm(s) across 4 session(s) at handle_cmd@0x7fffffff12; 4 alarm-rate change-point(s)",
		},
		"seed-incident-empty": wire.Incident{ID: 2},
		"seed-imageget":       wire.ImageGet{Hash: hash(0x11)},
		"seed-imageblob-full": wire.ImageBlob{Hash: hash(0x22), Data: append(make([]byte, 0, 512), "marshalled-table-image-bytes"...)},
		"seed-imageblob-empty": wire.ImageBlob{
			Hash: hash(0x33),
		},
		"seed-imagemissing": wire.ImageMissing{Hash: hash(0x44)},
		"seed-batch-traced": wire.Batch{
			Events: []wire.Event{
				{Kind: wire.EvEnter, PC: 0x40},
				{Kind: wire.EvBranch, PC: 0x4a, Taken: true},
				{Kind: wire.EvLeave},
			},
			TraceID:  0xdeadbeefcafe,
			OriginNs: 1_700_000_000_123_456_789,
		},
		"seed-batch-traced-empty": wire.Batch{TraceID: 1, OriginNs: 1},
		// Alarm names at both ends of the MaxString bound, the edges of
		// DecodeAlarmInto's aliased name slice.
		"seed-alarm-empty-func": wire.Alarm{Seq: 7, PC: 0x4a, Slot: 3, Expected: 1},
		"seed-alarm-maxstring-func": wire.Alarm{
			Seq: 1 << 40, PC: 0x7fffffff12, Slot: 1 << 31, Expected: 2, Taken: true,
			Func: strings.Repeat("f", wire.MaxString),
		},
	}
	write := func(name string, payload []byte) {
		// Native corpus entry for a target taking one []byte: FuzzDecode
		// takes the frame payload (the bytes after the 4-byte length
		// prefix), FuzzUnmarshal the marshalled image.
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(payload)))
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Println("wrote", path)
	}
	for name, f := range seeds {
		enc, err := wire.Append(nil, f)
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		write(name, enc[4:])
	}
	// Hand-built payloads no conforming encoder produces: the
	// extension-area shapes the decoder must skip or refuse.
	raw := map[string][]byte{
		"seed-batch-ext-unknown":   {3 /* TypeBatch */, 1, 1, 0x7e, 0xde, 0xad},
		"seed-batch-ext-truncated": {3 /* TypeBatch */, 1, 1, 1, 5},
		"seed-batch-ext-zero-id":   {3 /* TypeBatch */, 1, 1, 1, 0},
	}
	for name, payload := range raw {
		write(name, payload)
	}

	dir = filepath.Join("internal", "tables", "testdata", "fuzz", "FuzzUnmarshal")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	for name, data := range tableSeeds() {
		write(name, data)
	}
}

// tableSeeds returns the FuzzUnmarshal corpus: every workload's table
// image, plus one-function images each carrying one hostile record
// shape (internal/tables' TestUnmarshalRejectsHostileSeeds names the
// typed error each must be refused with). The hostile records are a
// telnetd function with one invariant broken; MarshalFunc never
// validates, so it writes them as given.
func tableSeeds() map[string][]byte {
	out := map[string][]byte{}
	var donor *tables.FuncImage
	for _, w := range workload.All() {
		art, err := pipeline.Compile(w.Source, ir.DefaultOptions)
		if err != nil {
			log.Fatalf("%s: %v", w.Name, err)
		}
		out["image-"+w.Name] = art.Image.Marshal()
		for _, fi := range art.Image.Funcs {
			if _, _, n := longest(fi); donor == nil && n >= 2 {
				donor = fi
			}
		}
	}
	image := func(rec []byte) []byte {
		return append(binary.LittleEndian.AppendUint32([]byte("SDPI"), 1), rec...) // magic "IPDS", 1 function
	}
	slot, dir, _ := longest(donor)
	head := donor.BATHeads[slot][dir]
	last := head
	for donor.Entries[last].Next >= 0 {
		last = donor.Entries[last].Next
	}
	for name, edit := range map[string]func(fi *tables.FuncImage){
		"hostile-head-range":   func(fi *tables.FuncImage) { fi.BATHeads[slot][dir] = int32(len(fi.Entries)) },
		"hostile-next-range":   func(fi *tables.FuncImage) { fi.Entries[head].Next = int32(len(fi.Entries) + 5) },
		"hostile-next-cycle":   func(fi *tables.FuncImage) { fi.Entries[last].Next = head },
		"hostile-shared-tail":  func(fi *tables.FuncImage) { fi.BATHeads[slot^1][dir] = fi.Entries[head].Next },
		"hostile-target-range": func(fi *tables.FuncImage) { fi.Entries[head].Target = fi.NumSlots },
		"hostile-action":       func(fi *tables.FuncImage) { fi.Entries[head].Act = 7 },
		"hostile-short-bcv":    func(fi *tables.FuncImage) { fi.BCV = fi.BCV[:len(fi.BCV)-1] },
		"hostile-unsorted-pcs": func(fi *tables.FuncImage) { fi.BranchPCs[0], fi.BranchPCs[1] = fi.BranchPCs[1], fi.BranchPCs[0] },
	} {
		fi, _, err := tables.UnmarshalFunc(tables.MarshalFunc(donor)) // a private copy
		if err != nil {
			log.Fatal(err)
		}
		edit(fi)
		out[name] = image(tables.MarshalFunc(fi))
	}
	rec := tables.MarshalFunc(donor)
	params := 4 + len(donor.Name) + 8 // offset of the hash params; the PC count follows them
	patch := func(off int, b ...byte) []byte {
		return image(append(append(append([]byte(nil), rec[:off]...), b...), rec[off+len(b):]...))
	}
	out["hostile-hash-pad"] = patch(params+3, 1)
	// S1 = 64: the kernel masks shift counts to 6 bits, under which
	// this shift would hash as 0 instead of clearing its term.
	out["hostile-hash-shift"] = patch(params, 64)
	out["hostile-npcs"] = patch(params+4, 0xf0, 0xff, 0xff, 0xff)
	out["hostile-trailing"] = append(image(rec), 0)
	// A ~50-byte record claiming 2^34 slots: a decoder that trusts
	// SizeLog2 sizes the heads (and the baked records) off it first.
	tiny := &tables.FuncImage{Name: "f", BCV: []uint64{0}, BATHeads: [][2]int32{{-1, -1}}}
	tiny.Hash.SizeLog2 = 34
	out["hostile-sizelog2"] = image(tables.MarshalFunc(tiny))
	return out
}

// longest returns the (slot, direction) of fi's longest BAT list and its
// length.
func longest(fi *tables.FuncImage) (slot, dir, n int) {
	for s, hs := range fi.BATHeads {
		for d, h := range hs {
			k := 0
			for i := h; i >= 0; i = fi.Entries[i].Next {
				k++
			}
			if k > n {
				slot, dir, n = s, d, k
			}
		}
	}
	return slot, dir, n
}
