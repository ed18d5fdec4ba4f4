// Package tables encodes the per-function analysis results of
// internal/core into the runtime's bit-level table images: the Branch
// Status Vector (BSV, 2 bits per slot, maintained at runtime), the
// Branch Checking Vector (BCV, 1 bit per slot) and the Branch Action
// Table (BAT, a per-slot, per-direction linked list of actions), all
// indexed by the collision-free hash of internal/hashfn.
//
// The bit sizes reported here regenerate the paper's Figure 8; the
// binary Marshal/Unmarshal round trip models attaching the tables to
// the program binary for the loader to map into reserved memory.
package tables

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/hashfn"
)

// Status is a BSV entry: the expected direction of a branch.
type Status uint8

// Branch statuses. Unknown matches any direction.
const (
	Unknown Status = iota
	Taken
	NotTaken
)

// String renders the status as the paper's UN/T/NT shorthand.
func (s Status) String() string {
	switch s {
	case Unknown:
		return "UN"
	case Taken:
		return "T"
	case NotTaken:
		return "NT"
	}
	return "?"
}

// matchBits is the status/direction truth table: bit (s<<1 | taken)
// is set when direction taken is compatible with status s. Unknown
// (bits 0,1) matches both directions, Taken (bit 3) only taken,
// NotTaken (bit 4) only not-taken.
const matchBits = 0b011011

// MatchFail reports, as 1 or 0, whether the direction bit t (1 =
// taken) is incompatible with the expected status. It is a branch-free
// truth-table probe: the verification kernel ANDs it with the slot's
// checked bit, so the only branch left on the verify edge is the rare
// alarm dispatch — a data-dependent status switch would mispredict on
// exactly the irregular histories the checker exists to examine.
// Statuses are always one of the three defined constants.
// The shift count is masked to 6 bits, a no-op for those statuses and
// a bit t in {0, 1}, so the compiler emits no oversized-shift guard.
func (s Status) MatchFail(t uint64) uint64 {
	return ^uint64(matchBits) >> ((uint64(s)<<1 | t) & 63) & 1
}

// BATEntry is one node of a BAT action list.
type BATEntry struct {
	Target int         // slot index of the branch to update
	Act    core.Action // SET_T / SET_NT / SET_UN
	Next   int32       // next entry index, -1 terminates
}

// FuncImage is the encoded table set of one function (the compiler's
// half of §5.4's function information table). It is immutable after
// EncodeFunc/Unmarshal: the runtime (internal/ipds) and any number of
// concurrent readers share it without synchronisation; per-run mutable
// state (the BSV) lives in the runtime's activation, never here.
type FuncImage struct {
	Name     string
	Base     uint64 // function code base address
	Hash     hashfn.Params
	NumSlots int

	// BranchPCs lists the function's conditional-branch PCs (sorted).
	// The slot hash is masked, so any PC maps onto *some* slot; this
	// list lets a strict runtime reject PCs that are not actually
	// branches of the function instead of silently aliasing them onto
	// another branch's slot. ValidPC binary-searches this slice
	// directly — there is no side map, so a FuncImage costs no pointer
	// chasing beyond the slice itself on the verification hot path.
	BranchPCs []uint64
	// hasPCs distinguishes an image encoded with (possibly zero)
	// branch-PC metadata from a hand-built fixture without any: only
	// the latter accepts every PC.
	hasPCs bool

	// BCV is the checking vector, one bit per slot.
	BCV []uint64

	// BATHeads holds, per slot and direction (0 taken, 1 not-taken),
	// the index of the first BAT entry, or -1.
	BATHeads [][2]int32
	Entries  []BATEntry

	// Sizes in bits of the three tables (Figure 8).
	BSVBits int
	BCVBits int
	BATBits int

	// baked is the load-time slot-record form of BCV+BAT the runtime
	// kernel probes (see baked.go). Derived state only: it never
	// marshals, and Bake builds it deterministically from the fields
	// above before the image is shared.
	baked *Baked
}

// Checked reports whether the slot is marked in the BCV.
func (fi *FuncImage) Checked(slot int) bool {
	return fi.BCV[slot/64]&(1<<(slot%64)) != 0
}

// Slot maps a branch PC to its table slot.
func (fi *FuncImage) Slot(pc uint64) int { return fi.Hash.Slot(fi.Base, pc) }

// ValidPC reports whether pc is one of the function's known branch PCs
// by binary search over the sorted BranchPCs slice (no map, no
// allocation). Images without branch-PC metadata (hand-built test
// fixtures) accept every PC, preserving the paper's tagless-table
// behaviour.
func (fi *FuncImage) ValidPC(pc uint64) bool {
	if !fi.hasPCs {
		return true
	}
	lo, hi := 0, len(fi.BranchPCs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if fi.BranchPCs[mid] < pc {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(fi.BranchPCs) && fi.BranchPCs[lo] == pc
}

// Image is the whole-program table set plus the function information
// table the compiler hands to the runtime (§5.4).
//
// Function lookup by entry address goes through FuncAt, which binary
// searches a dense base-sorted index (two parallel slices) instead of
// a map: the index is one cache-friendly []uint64 probe on the
// runtime's EnterFunc path, and the whole structure is immutable after
// Index, so any number of concurrent machines may share it.
type Image struct {
	Funcs []*FuncImage

	// bases/byBase form the dense sorted index FuncAt searches:
	// bases[i] is the entry address of byBase[i], ascending.
	bases  []uint64
	byBase []*FuncImage
}

// Index (re)builds the base-address lookup index over Funcs and bakes
// every function's slot-record form (see baked.go), so any image the
// runtime sees arrives ready for the fused-probe kernel. Encode,
// Unmarshal and the pipeline call it before an image is shared;
// hand-assembled images (tests, tools) must call it before FuncAt —
// concurrently sharing an image while calling Index is a data race.
func (im *Image) Index() {
	for _, fi := range im.Funcs {
		fi.Bake()
	}
	im.bases = make([]uint64, 0, len(im.Funcs))
	im.byBase = make([]*FuncImage, 0, len(im.Funcs))
	fns := make([]*FuncImage, len(im.Funcs))
	copy(fns, im.Funcs)
	sort.Slice(fns, func(i, j int) bool { return fns[i].Base < fns[j].Base })
	for _, fi := range fns {
		im.bases = append(im.bases, fi.Base)
		im.byBase = append(im.byBase, fi)
	}
}

// FuncAt locates a function image from its entry address (nil when the
// address belongs to no table-carrying function, e.g. library code).
// It allocates nothing and is safe for concurrent use once the image
// is indexed.
func (im *Image) FuncAt(base uint64) *FuncImage {
	bases := im.bases
	lo, hi := 0, len(bases)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if bases[mid] < base {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(bases) && bases[lo] == base {
		return im.byBase[lo]
	}
	return nil
}

// FuncByName returns the image for the named function, or nil.
func (im *Image) FuncByName(name string) *FuncImage {
	for _, fi := range im.Funcs {
		if fi.Name == name {
			return fi
		}
	}
	return nil
}

// Encode builds table images for every function in the analysis result.
func Encode(res *core.Result) (*Image, error) {
	im := &Image{}
	for _, fn := range res.Prog.Funcs {
		fi, err := EncodeFunc(res.Tables[fn])
		if err != nil {
			return nil, fmt.Errorf("tables: %s: %w", fn.Name, err)
		}
		im.Funcs = append(im.Funcs, fi)
	}
	im.Index()
	return im, nil
}

// EncodeFunc encodes one function's analysis result: it searches for
// the collision-free hash parameterisation (§5.2) and lays out the
// BCV bits and BAT action lists. EncodeFunc only reads ft, so
// concurrent calls on distinct FuncTables are safe — this is the unit
// of work the parallel pipeline fans out per function. The result is
// deterministic: identical FuncTables yield byte-identical MarshalFunc
// output.
func EncodeFunc(ft *core.FuncTables) (*FuncImage, error) {
	fn := ft.Fn
	pcs := make([]uint64, 0, len(ft.Branches))
	for _, br := range ft.Branches {
		pcs = append(pcs, br.PC)
	}
	params, err := hashfn.Find(fn.Base, pcs, 0)
	if err != nil {
		return nil, err
	}
	n := params.Slots()
	fi := &FuncImage{
		Name:     fn.Name,
		Base:     fn.Base,
		Hash:     params,
		NumSlots: n,
		BCV:      make([]uint64, (n+63)/64),
		BATHeads: make([][2]int32, n),
	}
	for i := range fi.BATHeads {
		fi.BATHeads[i] = [2]int32{-1, -1}
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	fi.BranchPCs, fi.hasPCs = pcs, true
	for br := range ft.Checked {
		s := fi.Slot(br.PC)
		fi.BCV[s/64] |= 1 << (s % 64)
	}

	// Deterministic event order: by branch PC, taken before not-taken.
	evs := make([]core.Event, 0, len(ft.Actions))
	for ev := range ft.Actions {
		evs = append(evs, ev)
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].Br.PC != evs[j].Br.PC {
			return evs[i].Br.PC < evs[j].Br.PC
		}
		return evs[i].Dir < evs[j].Dir
	})
	for _, ev := range evs {
		slot := fi.Slot(ev.Br.PC)
		dir := 0
		if ev.Dir == cfg.NotTaken {
			dir = 1
		}
		// Build the chain in update order.
		prev := int32(-1)
		for i := len(ft.Actions[ev]) - 1; i >= 0; i-- {
			u := ft.Actions[ev][i]
			fi.Entries = append(fi.Entries, BATEntry{
				Target: fi.Slot(u.Target.PC),
				Act:    u.Act,
				Next:   prev,
			})
			prev = int32(len(fi.Entries) - 1)
		}
		fi.BATHeads[slot][dir] = prev
	}

	fi.setSizes()
	return fi, nil
}

// setSizes fills in the Figure 8 bit sizes of the three tables.
func (fi *FuncImage) setSizes() {
	n := fi.NumSlots
	fi.BSVBits = 2 * n
	fi.BCVBits = n
	ptrBits := log2ceil(len(fi.Entries) + 1)
	slotBits := log2ceil(n)
	fi.BATBits = 2*n*ptrBits + len(fi.Entries)*(slotBits+2+ptrBits)
}

func log2ceil(n int) int {
	l := 0
	for (1 << l) < n {
		l++
	}
	if l == 0 {
		l = 1
	}
	return l
}

// Stats aggregates table sizes across an image (Figure 8 inputs).
type Stats struct {
	Funcs        int
	AvgBSVBits   float64
	AvgBCVBits   float64
	AvgBATBits   float64
	TotalEntries int
}

// Sizes computes average per-function table sizes.
func (im *Image) Sizes() Stats {
	var s Stats
	if len(im.Funcs) == 0 {
		return s
	}
	for _, fi := range im.Funcs {
		s.AvgBSVBits += float64(fi.BSVBits)
		s.AvgBCVBits += float64(fi.BCVBits)
		s.AvgBATBits += float64(fi.BATBits)
		s.TotalEntries += len(fi.Entries)
	}
	n := float64(len(im.Funcs))
	s.Funcs = len(im.Funcs)
	s.AvgBSVBits /= n
	s.AvgBCVBits /= n
	s.AvgBATBits /= n
	return s
}

const magic = uint32(0x49504453) // "IPDS"

// Marshal serialises the image to the binary form attached to program
// binaries.
func (im *Image) Marshal() []byte {
	var buf []byte
	buf = binary.LittleEndian.AppendUint32(buf, magic)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(im.Funcs)))
	for _, fi := range im.Funcs {
		buf = appendFunc(buf, fi)
	}
	return buf
}

// Hash is the image's content address: the SHA-256 of its marshalled
// bytes. Because Marshal is deterministic (same source + options ⇒
// byte-identical image), the hash identifies a program's table set
// across processes and machines — it is what a wire.Hello carries and
// what the serving daemon resolves images by.
func (im *Image) Hash() [sha256.Size]byte {
	return sha256.Sum256(im.Marshal())
}

// appendFunc appends one function's serialised record to buf.
func appendFunc(buf []byte, fi *FuncImage) []byte {
	u32 := func(v uint32) { buf = binary.LittleEndian.AppendUint32(buf, v) }
	u64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }

	u32(uint32(len(fi.Name)))
	buf = append(buf, fi.Name...)
	u64(fi.Base)
	buf = append(buf, fi.Hash.S1, fi.Hash.S2, fi.Hash.SizeLog2, 0)
	u32(uint32(len(fi.BranchPCs)))
	for _, pc := range fi.BranchPCs {
		u64(pc)
	}
	u32(uint32(len(fi.BCV)))
	for _, w := range fi.BCV {
		u64(w)
	}
	u32(uint32(len(fi.Entries)))
	for _, e := range fi.Entries {
		u32(uint32(e.Target))
		u32(uint32(e.Act))
		u32(uint32(e.Next))
	}
	for _, h := range fi.BATHeads {
		u32(uint32(h[0]))
		u32(uint32(h[1]))
	}
	return buf
}

// MarshalFunc serialises a single function image using the same record
// layout Marshal embeds per function. The per-function table cache
// (internal/tcache) stores these records as its blob payload.
func MarshalFunc(fi *FuncImage) []byte {
	return appendFunc(nil, fi)
}

// Decoder refusals. Registry peers and the table cache's disk tier
// hand Unmarshal and UnmarshalFunc untrusted bytes, so the decoder
// checks every count against the bytes left before sizing anything from
// it, and every BAT link, target and action before the image is baked.
// Each refusal wraps exactly one of these (test with errors.Is). An
// accepted image is one EncodeFunc could have produced: it bakes
// without a failure path and re-marshals byte-identically.
var (
	ErrTruncated    = errors.New("tables: truncated image")
	ErrBadMagic     = errors.New("tables: bad magic")
	ErrNonCanonical = errors.New("tables: non-canonical image")
	ErrHashSize     = errors.New("tables: hash size above encoder ceiling")
	ErrHashShift    = errors.New("tables: hash shift outside the encoder's search space")
	ErrBCVLength    = errors.New("tables: BCV length does not match slot count")
	ErrBATLink      = errors.New("tables: BAT link out of range")
	ErrBATCycle     = errors.New("tables: BAT list revisits an entry")
	ErrBATTarget    = errors.New("tables: BAT target out of range")
	ErrBATAction    = errors.New("tables: unknown BAT action")
)

// UnmarshalFunc reads a single function record produced by MarshalFunc,
// returning the validated, baked image and the number of bytes
// consumed.
func UnmarshalFunc(data []byte) (*FuncImage, int, error) {
	return readFunc(data, 0)
}

// Unmarshal reads a serialised image. Trailing bytes are refused, so an
// accepted image is exactly the Marshal output of what it decodes to.
func Unmarshal(data []byte) (*Image, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("%w at header", ErrTruncated)
	}
	if binary.LittleEndian.Uint32(data) != magic {
		return nil, ErrBadMagic
	}
	nf := binary.LittleEndian.Uint32(data[4:])
	off := 8
	im := &Image{}
	for i := uint32(0); i < nf; i++ {
		fi, next, err := readFunc(data, off)
		if err != nil {
			return nil, err
		}
		off = next
		im.Funcs = append(im.Funcs, fi)
	}
	if off != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrNonCanonical, len(data)-off)
	}
	im.Index()
	return im, nil
}

// readFunc decodes and validates one function record starting at off,
// returning the baked image and the offset just past the record.
func readFunc(data []byte, off int) (*FuncImage, int, error) {
	refuse := func(err error, format string, args ...any) (*FuncImage, int, error) {
		return nil, 0, fmt.Errorf("%w: "+format, append([]any{err}, args...)...)
	}
	// fits reports whether nbytes remain. Counts come from the input,
	// so it runs before anything is read or sized from one.
	fits := func(nbytes uint64) bool { return nbytes <= uint64(len(data)-off) }
	u32 := func() uint32 {
		v := binary.LittleEndian.Uint32(data[off:])
		off += 4
		return v
	}
	u64 := func() uint64 {
		v := binary.LittleEndian.Uint64(data[off:])
		off += 8
		return v
	}

	if !fits(4) {
		return refuse(ErrTruncated, "name length")
	}
	nameLen := uint64(u32())
	if !fits(nameLen + 8 + 4 + 4) { // name, base, hash params, branch pc count
		return refuse(ErrTruncated, "name")
	}
	name := string(data[off : off+int(nameLen)])
	off += int(nameLen)
	base := u64()
	params := hashfn.Params{S1: data[off], S2: data[off+1], SizeLog2: data[off+2]}
	if pad := data[off+3]; pad != 0 {
		return refuse(ErrNonCanonical, "%s: hash padding byte %#x", name, pad)
	}
	if params.SizeLog2 > hashfn.MaxSizeLog2 {
		return refuse(ErrHashSize, "%s: 2^%d slots", name, params.SizeLog2)
	}
	// The kernel masks shift counts to 6 bits; a shift outside the
	// search space would hash differently masked than unmasked.
	for _, sh := range [2]uint8{params.S1, params.S2} {
		if sh < 1 || sh > hashfn.MaxShift {
			return refuse(ErrHashShift, "%s: shift %d not in [1, %d]", name, sh, hashfn.MaxShift)
		}
	}
	off += 4
	n := params.Slots()

	nPCs := u32()
	if !fits(8*uint64(nPCs) + 4) { // the pcs, then the BCV length
		return refuse(ErrTruncated, "%s: branch pcs", name)
	}
	pcs := make([]uint64, nPCs)
	for j := range pcs {
		if pcs[j] = u64(); j > 0 && pcs[j] < pcs[j-1] {
			return refuse(ErrNonCanonical, "%s: branch pcs not sorted", name)
		}
	}
	nBCV := u32()
	if int(nBCV) != (n+63)/64 {
		return refuse(ErrBCVLength, "%s: %d words for %d slots", name, nBCV, n)
	}
	if !fits(8*uint64(nBCV) + 4) { // the words, then the entry count
		return refuse(ErrTruncated, "%s: bcv", name)
	}
	fi := &FuncImage{
		Name: name, Base: base, Hash: params, NumSlots: n,
		BranchPCs: pcs, hasPCs: true,
		BCV: make([]uint64, nBCV),
	}
	for j := range fi.BCV {
		fi.BCV[j] = u64()
	}

	// The entries and then the per-slot heads finish the record.
	nEnt := u32()
	if !fits(12*uint64(nEnt) + 8*uint64(n)) {
		return refuse(ErrTruncated, "%s: bat", name)
	}
	link := func(v uint32) (int32, bool) {
		i := int32(v)
		return i, i >= -1 && int64(i) < int64(nEnt)
	}
	fi.Entries = make([]BATEntry, nEnt)
	for j := range fi.Entries {
		tgt, act, next := u32(), u32(), u32()
		if tgt >= uint32(n) {
			return refuse(ErrBATTarget, "%s: entry %d targets slot %d of %d", name, j, tgt, n)
		}
		if act > uint32(core.SetUnknown) {
			return refuse(ErrBATAction, "%s: entry %d action %d", name, j, act)
		}
		nx, ok := link(next)
		if !ok {
			return refuse(ErrBATLink, "%s: entry %d next %d", name, j, int32(next))
		}
		fi.Entries[j] = BATEntry{Target: int(tgt), Act: core.Action(act), Next: nx}
	}
	// Every list must end without revisiting an entry — no cycles, no
	// tails shared between lists — which one visited bitmap over all
	// the lists checks in O(entries).
	seen := make([]uint64, (nEnt+63)/64)
	fi.BATHeads = make([][2]int32, n)
	for slot := range fi.BATHeads {
		for dir := range fi.BATHeads[slot] {
			h, ok := link(u32())
			if !ok {
				return refuse(ErrBATLink, "%s: slot %d head %d", name, slot, h)
			}
			fi.BATHeads[slot][dir] = h
			for i := h; i >= 0; i = fi.Entries[i].Next {
				if seen[i/64]&(1<<(i%64)) != 0 {
					return refuse(ErrBATCycle, "%s: slot %d dir %d reaches entry %d twice", name, slot, dir, i)
				}
				seen[i/64] |= 1 << (i % 64)
			}
		}
	}
	fi.setSizes()
	fi.Bake()
	return fi, off, nil
}
