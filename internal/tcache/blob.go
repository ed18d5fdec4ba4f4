package tcache

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/tables"
)

// Blob layout (little endian). One blob is one function's fully
// compiled table set plus the analysis diagnostics needed to rebuild a
// core.FuncTables against an identical lowered function:
//
//	u32 magic "TCB1"
//	u32 len(FuncImage record)   || tables.MarshalFunc bytes
//	u32 nChecked                || checked branch instruction IDs
//	u32 nEvents                 || per event: u32 brID, u32 dir,
//	                               u32 nUpdates × (u32 targetID, u32 act)
//	u32 nCorrelations           || per correlation: u32 kind, u32 srcID,
//	                               u32 dir, u32 viaID, u32 tgtID,
//	                               u32 act, u64 obj
//
// Instruction IDs index ir.Func.Instrs; rehydration is only valid
// against a function whose KeyFunc matches the one the blob was stored
// under, which pins the instruction numbering.
const blobMagic = uint32(0x31424354) // "TCB1"

// EncodeBlob serialises one function's compile results into a cache
// blob. Event and correlation order is canonicalised so identical
// inputs produce byte-identical blobs.
func EncodeBlob(fi *tables.FuncImage, ft *core.FuncTables) []byte {
	var buf []byte
	u32 := func(v uint32) { buf = binary.LittleEndian.AppendUint32(buf, v) }
	u64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }

	u32(blobMagic)
	rec := tables.MarshalFunc(fi)
	u32(uint32(len(rec)))
	buf = append(buf, rec...)

	checked := make([]int, 0, len(ft.Checked))
	for br := range ft.Checked {
		checked = append(checked, br.ID)
	}
	sort.Ints(checked)
	u32(uint32(len(checked)))
	for _, id := range checked {
		u32(uint32(id))
	}

	evs := make([]core.Event, 0, len(ft.Actions))
	for ev := range ft.Actions {
		evs = append(evs, ev)
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].Br.ID != evs[j].Br.ID {
			return evs[i].Br.ID < evs[j].Br.ID
		}
		return evs[i].Dir < evs[j].Dir
	})
	u32(uint32(len(evs)))
	for _, ev := range evs {
		u32(uint32(ev.Br.ID))
		u32(uint32(ev.Dir))
		ups := ft.Actions[ev]
		u32(uint32(len(ups)))
		for _, u := range ups {
			u32(uint32(u.Target.ID))
			u32(uint32(u.Act))
		}
	}

	u32(uint32(len(ft.Correlations)))
	for _, c := range ft.Correlations {
		u32(uint32(c.Kind))
		u32(uint32(c.Source.ID))
		u32(uint32(c.Dir))
		u32(uint32(c.Via.ID))
		u32(uint32(c.Target.ID))
		u32(uint32(c.Act))
		u64(uint64(c.Obj))
	}
	return buf
}

// DecodeBlob rehydrates a cache blob against fn, reconstructing both
// the encoded FuncImage and the FuncTables diagnostics. fn must be the
// function the blob was keyed for (same KeyFunc): instruction IDs in
// the blob are resolved through fn.Instrs. Any structural mismatch
// returns an error, which callers treat as a cache miss. So does any
// blob EncodeBlob would not have written — unsorted or repeated checked
// branches or events, or trailing bytes — so an accepted blob
// re-encodes byte-identically.
func DecodeBlob(blob []byte, fn *ir.Func) (*tables.FuncImage, *core.FuncTables, error) {
	off := 0
	fail := func(what string) error { return fmt.Errorf("tcache: truncated blob at %s", what) }
	u32 := func() (uint32, bool) {
		if off+4 > len(blob) {
			return 0, false
		}
		v := binary.LittleEndian.Uint32(blob[off:])
		off += 4
		return v, true
	}
	u64 := func() (uint64, bool) {
		if off+8 > len(blob) {
			return 0, false
		}
		v := binary.LittleEndian.Uint64(blob[off:])
		off += 8
		return v, true
	}
	instr := func(id uint32) (*ir.Instr, error) {
		if int(id) >= len(fn.Instrs) {
			return nil, fmt.Errorf("tcache: instruction id %d out of range for %s", id, fn.Name)
		}
		return fn.Instrs[id], nil
	}

	if m, ok := u32(); !ok || m != blobMagic {
		return nil, nil, fmt.Errorf("tcache: bad blob magic")
	}
	recLen, ok := u32()
	if !ok || off+int(recLen) > len(blob) {
		return nil, nil, fail("image record")
	}
	fi, n, err := tables.UnmarshalFunc(blob[off : off+int(recLen)])
	if err != nil {
		return nil, nil, err
	}
	if n != int(recLen) {
		return nil, nil, fmt.Errorf("tcache: image record length mismatch")
	}
	off += int(recLen)

	ft := &core.FuncTables{
		Fn:       fn,
		Branches: fn.Branches(),
		Checked:  map[*ir.Instr]bool{},
		Actions:  map[core.Event][]core.Update{},
	}

	nChecked, ok := u32()
	if !ok {
		return nil, nil, fail("checked count")
	}
	var prevID uint32
	for i := uint32(0); i < nChecked; i++ {
		id, ok := u32()
		if !ok {
			return nil, nil, fail("checked id")
		}
		if i > 0 && id <= prevID {
			return nil, nil, fmt.Errorf("tcache: checked branches not strictly ascending")
		}
		prevID = id
		br, err := instr(id)
		if err != nil {
			return nil, nil, err
		}
		ft.Checked[br] = true
	}

	nEvents, ok := u32()
	if !ok {
		return nil, nil, fail("event count")
	}
	var prevBr, prevDir uint32
	for i := uint32(0); i < nEvents; i++ {
		brID, ok1 := u32()
		dir, ok2 := u32()
		nUps, ok3 := u32()
		if !ok1 || !ok2 || !ok3 {
			return nil, nil, fail("event header")
		}
		if i > 0 && (brID < prevBr || brID == prevBr && dir <= prevDir) {
			return nil, nil, fmt.Errorf("tcache: events not strictly ascending")
		}
		prevBr, prevDir = brID, dir
		// Each update is 8 bytes; a count past the bytes left is
		// corrupt, and refusing it first bounds the allocation below.
		if uint64(nUps)*8 > uint64(len(blob)-off) {
			return nil, nil, fail("updates")
		}
		br, err := instr(brID)
		if err != nil {
			return nil, nil, err
		}
		ev := core.Event{Br: br, Dir: cfg.Direction(dir)}
		ups := make([]core.Update, 0, nUps)
		for j := uint32(0); j < nUps; j++ {
			tgtID, ok1 := u32()
			act, ok2 := u32()
			if !ok1 || !ok2 {
				return nil, nil, fail("update")
			}
			tgt, err := instr(tgtID)
			if err != nil {
				return nil, nil, err
			}
			ups = append(ups, core.Update{Target: tgt, Act: core.Action(act)})
		}
		ft.Actions[ev] = ups
	}

	nCorr, ok := u32()
	if !ok {
		return nil, nil, fail("correlation count")
	}
	for i := uint32(0); i < nCorr; i++ {
		kind, ok1 := u32()
		srcID, ok2 := u32()
		dir, ok3 := u32()
		viaID, ok4 := u32()
		tgtID, ok5 := u32()
		act, ok6 := u32()
		if !ok1 || !ok2 || !ok3 || !ok4 || !ok5 || !ok6 {
			return nil, nil, fail("correlation")
		}
		obj, ok7 := u64()
		if !ok7 {
			return nil, nil, fail("correlation obj")
		}
		src, err := instr(srcID)
		if err != nil {
			return nil, nil, err
		}
		via, err := instr(viaID)
		if err != nil {
			return nil, nil, err
		}
		tgt, err := instr(tgtID)
		if err != nil {
			return nil, nil, err
		}
		ft.Correlations = append(ft.Correlations, core.Correlation{
			Kind: core.CorrKind(kind), Source: src, Dir: cfg.Direction(dir),
			Via: via, Target: tgt, Act: core.Action(act), Obj: ir.ObjID(obj),
		})
	}
	if off != len(blob) {
		return nil, nil, fmt.Errorf("tcache: %d trailing bytes after blob", len(blob)-off)
	}
	return fi, ft, nil
}
