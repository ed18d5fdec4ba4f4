package tables

import (
	"bytes"
	"testing"

	"repro/internal/core"
)

// bakedWalk replays the baked action list for (slot, dir) onto bsv the
// way the runtime kernel does — inline records for short lists, one
// contiguous scan of the flattened list otherwise — returning the
// number of actions applied.
func bakedWalk(b *Baked, slot, dir int, bsv []Status) int {
	r := &b.Recs[slot]
	n := int(r.Meta >> (2 + dir*3) & 7)
	for k := 0; k < n; k++ {
		a := r.Inline[dir][k]
		bsv[a>>2] = Status(a & 3)
	}
	if r.Meta>>(8+dir)&1 != 0 {
		tail := int(r.Tail[dir])
		for _, a := range b.Acts[r.Off[dir] : int(r.Off[dir])+tail] {
			bsv[a>>2] = Status(a & 3)
		}
		n += tail
	}
	return n
}

// listEntries walks the linked-list form of the (slot, dir) BAT list
// from its head — the reference the baked form is derived from.
func listEntries(fi *FuncImage, slot, dir int) []BATEntry {
	var out []BATEntry
	for i := fi.BATHeads[slot][dir]; i >= 0; i = fi.Entries[i].Next {
		out = append(out, fi.Entries[i])
	}
	return out
}

// refWalk replays the linked-list form with the paper's action
// semantics (SET_T, SET_NT, SET_UN).
func refWalk(fi *FuncImage, slot int, taken bool, bsv []Status) int {
	dir := 0
	if !taken {
		dir = 1
	}
	es := listEntries(fi, slot, dir)
	for _, e := range es {
		switch e.Act {
		case core.SetTaken:
			bsv[e.Target] = Taken
		case core.SetNotTaken:
			bsv[e.Target] = NotTaken
		default:
			bsv[e.Target] = Unknown
		}
	}
	return len(es)
}

// TestBakedMatchesActionLists holds the baked form to the linked-list
// form over compiled programs: for every (slot, direction), the same
// walk length and the same BSV effect, and the checked bit mirrors the
// BCV.
func TestBakedMatchesActionLists(t *testing.T) {
	_, _, im := encode(t, testSrc)
	for _, fi := range im.Funcs {
		b := fi.Baked()
		if b == nil {
			t.Fatalf("%s: not baked after Encode", fi.Name)
		}
		if len(b.Recs) != len(fi.BATHeads) {
			t.Fatalf("%s: %d records for %d slots", fi.Name, len(b.Recs), len(fi.BATHeads))
		}
		for slot := range b.Recs {
			if got, want := b.Recs[slot].Meta&1 != 0, fi.Checked(slot); got != want {
				t.Errorf("%s slot %d: baked checked %v, BCV %v", fi.Name, slot, got, want)
			}
			for dir := 0; dir < 2; dir++ {
				ref := make([]Status, fi.NumSlots)
				got := make([]Status, fi.NumSlots)
				wn := refWalk(fi, slot, dir == 0, ref)
				gn := bakedWalk(b, slot, dir, got)
				if wn != gn {
					t.Errorf("%s slot %d dir %d: baked walk %d actions, reference %d",
						fi.Name, slot, dir, gn, wn)
				}
				for s := range ref {
					if ref[s] != got[s] {
						t.Errorf("%s slot %d dir %d: bsv[%d] = %v after baked walk, want %v",
							fi.Name, slot, dir, s, got[s], ref[s])
					}
				}
			}
		}
	}
}

// overflowImage hand-builds a function whose slot-0 taken list is
// longer than BakedInline, with a short not-taken list behind it, so
// both the inline records and the flattened tail are exercised.
func overflowImage() *FuncImage {
	fi := &FuncImage{
		Name:     "overflow",
		Base:     0x1000,
		NumSlots: 8,
		BCV:      []uint64{0b1},
		BATHeads: [][2]int32{{0, 5}, {-1, -1}, {-1, -1}, {-1, -1}, {-1, -1}, {-1, -1}, {-1, -1}, {-1, -1}},
		Entries: []BATEntry{
			{Target: 1, Act: core.SetTaken, Next: 1},
			{Target: 2, Act: core.SetNotTaken, Next: 2},
			{Target: 3, Act: core.SetTaken, Next: 3},
			{Target: 4, Act: core.SetUnknown, Next: 4},
			{Target: 5, Act: core.SetTaken, Next: -1},
			{Target: 6, Act: core.SetNotTaken, Next: -1},
		},
	}
	return fi
}

func TestBakedOverflowTail(t *testing.T) {
	fi := overflowImage()
	fi.Bake()
	b := fi.Baked()
	if b == nil {
		t.Fatal("Bake left image unbaked")
	}
	r := &b.Recs[0]
	if n := r.Meta >> 2 & 7; n != 0 {
		t.Fatalf("taken inline count = %d, want 0 (list overflows inline)", n)
	}
	if r.Meta>>8&1 != 1 {
		t.Fatal("taken overflow flag not set for a flattened list")
	}
	if r.Meta>>9&1 != 0 {
		t.Fatal("not-taken overflow flag set for an inline list")
	}
	if r.Tail[0] != 5 {
		t.Fatalf("taken flattened length = %d, want 5", r.Tail[0])
	}
	if n := r.Meta >> 5 & 7; n != 1 {
		t.Fatalf("not-taken inline count = %d, want 1", n)
	}
	if r.Tail[1] != 0 {
		t.Fatalf("not-taken tail = %d, want 0", r.Tail[1])
	}
	for dir := 0; dir < 2; dir++ {
		ref := make([]Status, fi.NumSlots)
		got := make([]Status, fi.NumSlots)
		wn := refWalk(fi, 0, dir == 0, ref)
		gn := bakedWalk(b, 0, dir, got)
		if wn != gn {
			t.Fatalf("dir %d: walk %d, want %d", dir, gn, wn)
		}
		for s := range ref {
			if ref[s] != got[s] {
				t.Fatalf("dir %d: bsv[%d] = %v, want %v", dir, s, got[s], ref[s])
			}
		}
	}

	// Idempotent: a second Bake keeps the derived form.
	before := fi.Baked()
	fi.Bake()
	if fi.Baked() != before {
		t.Fatal("second Bake rebuilt the baked form")
	}
}

// TestBakeDoesNotChangeMarshal pins the tentpole's wire-format
// constraint: the baked form is derived state only, and marshalled
// bytes are identical with and without it.
func TestBakeDoesNotChangeMarshal(t *testing.T) {
	_, _, im := encode(t, testSrc)
	baked := im.Marshal()
	for _, fi := range im.Funcs {
		fi.baked = nil
	}
	unbaked := im.Marshal()
	if !bytes.Equal(baked, unbaked) {
		t.Fatal("Marshal bytes differ between baked and unbaked images")
	}
	im.Index() // restore the shared-image invariant
	for _, fi := range im.Funcs {
		if fi.Baked() == nil {
			t.Fatalf("%s: Index did not re-bake", fi.Name)
		}
	}
}
