package tables

import "repro/internal/core"

// Baked slot-record layout: the load-time form of a function's tables
// that the runtime verification kernel (internal/ipds OnBatch) probes.
//
// The paper's hardware IPDS answers one committed branch with a single
// wide indexed access that yields the BCV checked bit, the BSV status
// and the BAT actions together (§4, Table 1). The wire-format FuncImage
// keeps the three structures separate — BCV bit array, BSV in the
// activation, BAT as per-slot linked lists through a shared Entries
// slice — which costs the software kernel three dependent probes plus a
// pointer-chase per event. Baking derives, per function, a fixed-stride
// array of slot records that fuse the checked flag and the first
// BakedInline actions of each direction's BAT list into one record,
// with longer lists flattened into a contiguous overflow array. The
// bake is derived state only: Marshal bytes are computed from the
// original structures and stay byte-identical, and walk order and walk
// length (the runtime's cost accounting) are exactly those of the
// linked lists.

// BakedInline is the number of BAT actions stored inline per (slot,
// direction) in a SlotRec, which keeps the record within one cache
// line. Most walks fit: over the sshd and httpd PerfSession captures
// the end-to-end benchmark replays, most branches walk 0–3 actions,
// but 25.6% of sshd's branches (3009 of 11736; lists of 5 and 7
// actions) and 8.2% of httpd's (1253 of 15299; lists of 5) walk an
// overflow list in Baked.Acts.
const BakedInline = 4

// SlotRec is one baked slot record: the kernel's single-probe view of
// a slot. Meta packs the BCV checked flag (bit 0), the inline action
// counts for direction 0/taken (bits 2–4) and direction 1/not-taken
// (bits 5–7), and per-direction overflow flags (bits 8–9). A
// direction whose list fits in BakedInline actions stores them in
// Inline; a longer list is flattened whole into Baked.Acts (inline
// count 0, overflow flag set, Off/Tail giving its extent), so the
// kernel walks it as one contiguous scan instead of an inline prefix
// plus a tail — and, because the flag lives in the Meta word it has
// already loaded, the (overwhelmingly common) inline case never
// touches Off/Tail at all. Actions are packed as target<<2|status:
// applying one is a single bsv[a>>2] = Status(a&3) store.
type SlotRec struct {
	Meta   uint32
	Inline [2][BakedInline]uint32
	Off    [2]uint32
	Tail   [2]uint32

	_ [3]uint32 // pad to 64 bytes: one cache line per probe, shift-indexed
}

// Baked is a function's baked table set: the fixed-stride slot records
// plus the flattened overflow actions. Like the FuncImage it derives
// from, it is immutable once built and shared without synchronisation.
type Baked struct {
	Recs []SlotRec
	Acts []uint32
}

// bakeStatus maps a BAT entry to the packed status its action writes
// (SetTaken, SetNotTaken, and SetUnknown clearing to Unknown).
func bakeStatus(e BATEntry) uint32 {
	switch e.Act {
	case core.SetTaken:
		return uint32(Taken)
	case core.SetNotTaken:
		return uint32(NotTaken)
	}
	return uint32(Unknown)
}

// Bake derives the baked slot-record form from the function's BCV and
// BAT. It is idempotent and must be called before the image is shared
// (Image.Index bakes every function, so any image that reaches the
// runtime through Encode, Unmarshal or the pipeline arrives baked);
// calling it concurrently with readers is a data race, like Index.
// Bake has no failure path: it requires a well-formed image — BAT
// targets inside the slot space and acyclic lists — which EncodeFunc
// produces by construction and the decoder enforces on every record it
// accepts. Hand-built fixtures must uphold the same invariants.
func (fi *FuncImage) Bake() {
	if fi.baked != nil {
		return
	}
	b := &Baked{Recs: make([]SlotRec, len(fi.BATHeads))}
	for slot := range b.Recs {
		r := &b.Recs[slot]
		if len(fi.BCV) > 0 && fi.Checked(slot) {
			r.Meta |= 1
		}
		for dir := 0; dir < 2; dir++ {
			// Flatten the list onto the overflow array in walk order, then
			// move it inline if it is short enough.
			off := len(b.Acts)
			for i := fi.BATHeads[slot][dir]; i >= 0; i = fi.Entries[i].Next {
				e := fi.Entries[i]
				b.Acts = append(b.Acts, uint32(e.Target)<<2|bakeStatus(e))
			}
			count := len(b.Acts) - off
			if count <= BakedInline {
				r.Meta |= uint32(count) << (2 + dir*3)
				copy(r.Inline[dir][:], b.Acts[off:])
				b.Acts = b.Acts[:off]
				continue
			}
			r.Meta |= 1 << (8 + dir)
			r.Off[dir] = uint32(off)
			r.Tail[dir] = uint32(count)
		}
	}
	fi.baked = b
}

// Baked returns the function's baked slot records. It is non-nil for
// every function of an indexed image; only a hand-built FuncImage that
// never went through Image.Index or Bake returns nil.
func (fi *FuncImage) Baked() *Baked { return fi.baked }
