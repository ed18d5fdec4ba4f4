package tables

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/hashfn"
	"repro/internal/ir"
	"repro/internal/minic"
)

const testSrc = `
int x; int y;
void f(int n) {
	while (n > 0) {
		if (y < 5) {
			if (x > 10) {
				x = read_int();
			}
		}
		if (y < 10) {
			print_int(1);
		}
		n = n - 1;
	}
}
int g() {
	if (y == 2) { return 1; }
	if (y == 2) { return 2; }
	return 0;
}`

func encode(t testing.TB, src string) (*ir.Program, *core.Result, *Image) {
	t.Helper()
	mp, err := minic.Compile(src)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	p, err := ir.Lower(mp, ir.DefaultOptions)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	res := core.Build(p, nil)
	im, err := Encode(res)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return p, res, im
}

func TestEncodeBasics(t *testing.T) {
	p, res, im := encode(t, testSrc)
	if len(im.Funcs) != len(p.Funcs) {
		t.Fatalf("images = %d, want %d", len(im.Funcs), len(p.Funcs))
	}
	for _, fn := range p.Funcs {
		fi := im.FuncByName(fn.Name)
		if fi == nil {
			t.Fatalf("no image for %s", fn.Name)
		}
		if im.FuncAt(fn.Base) != fi {
			t.Error("FuncAt lookup broken")
		}
		ft := res.Tables[fn]
		// Every branch maps to a distinct in-range slot.
		seen := map[int]bool{}
		for _, br := range ft.Branches {
			s := fi.Slot(br.PC)
			if s < 0 || s >= fi.NumSlots {
				t.Fatalf("slot out of range")
			}
			if seen[s] {
				t.Fatalf("%s: slot collision", fn.Name)
			}
			seen[s] = true
		}
		// BCV bits match the checked set.
		for _, br := range ft.Branches {
			if fi.Checked(fi.Slot(br.PC)) != ft.Checked[br] {
				t.Errorf("%s: BCV mismatch for branch at %#x", fn.Name, br.PC)
			}
		}
	}
}

func TestEncodeActionsRoundTrip(t *testing.T) {
	p, res, im := encode(t, testSrc)
	fn := p.ByName["f"]
	ft := res.Tables[fn]
	fi := im.FuncByName("f")
	for ev, ups := range ft.Actions {
		slot := fi.Slot(ev.Br.PC)
		got := listEntries(fi, slot, int(ev.Dir))
		if len(got) != len(ups) {
			t.Fatalf("event %v: walked %d, want %d", ev, len(got), len(ups))
		}
		for i, u := range ups {
			if got[i].Target != fi.Slot(u.Target.PC) || got[i].Act != u.Act {
				t.Errorf("event %v update %d: got %+v, want target %d act %v",
					ev, i, got[i], fi.Slot(u.Target.PC), u.Act)
			}
		}
	}
}

func TestEncodeSizes(t *testing.T) {
	_, _, im := encode(t, testSrc)
	s := im.Sizes()
	if s.Funcs != 2 {
		t.Fatalf("funcs = %d", s.Funcs)
	}
	if s.AvgBSVBits <= 0 || s.AvgBCVBits <= 0 {
		t.Error("table sizes must be positive")
	}
	if s.AvgBSVBits != 2*s.AvgBCVBits {
		t.Errorf("BSV (%v) must be 2x BCV (%v)", s.AvgBSVBits, s.AvgBCVBits)
	}
	fi := im.FuncByName("f")
	if fi.BATBits <= fi.BSVBits {
		t.Errorf("BAT (%d bits) should dominate BSV (%d bits) for correlated code",
			fi.BATBits, fi.BSVBits)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	_, _, im := encode(t, testSrc)
	data := im.Marshal()
	im2, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(im2.Funcs) != len(im.Funcs) {
		t.Fatalf("func count mismatch")
	}
	for i, fi := range im.Funcs {
		fi2 := im2.Funcs[i]
		if fi.Name != fi2.Name || fi.Base != fi2.Base || fi.Hash != fi2.Hash {
			t.Errorf("header mismatch: %+v vs %+v", fi, fi2)
		}
		if !reflect.DeepEqual(fi.BCV, fi2.BCV) {
			t.Errorf("%s: BCV mismatch", fi.Name)
		}
		if !reflect.DeepEqual(fi.Entries, fi2.Entries) {
			t.Errorf("%s: entries mismatch", fi.Name)
		}
		if !reflect.DeepEqual(fi.BATHeads, fi2.BATHeads) {
			t.Errorf("%s: heads mismatch", fi.Name)
		}
		if fi.BATBits != fi2.BATBits || fi.BSVBits != fi2.BSVBits || fi.BCVBits != fi2.BCVBits {
			t.Errorf("%s: size mismatch", fi.Name)
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	_, _, im := encode(t, testSrc)
	data := im.Marshal()
	if _, err := Unmarshal(nil); err == nil {
		t.Error("nil data must fail")
	}
	if _, err := Unmarshal([]byte{1, 2, 3, 4}); err == nil {
		t.Error("bad magic must fail")
	}
	for _, cut := range []int{5, 9, 17, len(data) / 2, len(data) - 1} {
		if cut >= len(data) {
			continue
		}
		if _, err := Unmarshal(data[:cut]); err == nil {
			t.Errorf("truncation at %d must fail", cut)
		}
	}
}

// TestUnmarshalRefusesHashShift holds the decoder to hashfn's shift
// search space: the kernel masks shift counts to 6 bits, so a forged
// shift of 64 or more would hash differently there than unmasked, and
// 0 is no shift the compiler can choose. Both ends of the space are
// accepted.
func TestUnmarshalRefusesHashShift(t *testing.T) {
	_, _, im := encode(t, testSrc)
	data := im.Marshal()
	params := 8 + 4 + len(im.Funcs[0].Name) + 8 // header, name length, name, base
	patched := func(off int, v byte) []byte {
		c := append([]byte(nil), data...)
		c[off] = v
		return c
	}
	for _, field := range []int{params, params + 1} {
		for _, v := range []byte{0, hashfn.MaxShift + 1, 63, 64, 65, 255} {
			if _, err := Unmarshal(patched(field, v)); !errors.Is(err, ErrHashShift) {
				t.Errorf("shift byte %d = %d: error %v, want ErrHashShift", field-params, v, err)
			}
		}
		for _, v := range []byte{1, hashfn.MaxShift} {
			if _, err := Unmarshal(patched(field, v)); err != nil {
				t.Errorf("shift byte %d = %d refused: %v", field-params, v, err)
			}
		}
	}
}

func TestStatusHelpers(t *testing.T) {
	if Unknown.MatchFail(1) != 0 || Unknown.MatchFail(0) != 0 {
		t.Error("unknown matches anything")
	}
	if Taken.MatchFail(1) != 0 || Taken.MatchFail(0) != 1 {
		t.Error("taken matching")
	}
	if NotTaken.MatchFail(1) != 1 || NotTaken.MatchFail(0) != 0 {
		t.Error("not-taken matching")
	}
	if Unknown.String() != "UN" || Taken.String() != "T" || NotTaken.String() != "NT" {
		t.Error("status strings")
	}
}

func TestEncodeFunctionWithoutBranches(t *testing.T) {
	_, _, im := encode(t, `void f() { print_int(1); }`)
	fi := im.FuncByName("f")
	if fi == nil {
		t.Fatal("missing image")
	}
	if len(fi.Entries) != 0 {
		t.Error("no actions expected")
	}
}

func TestMarshalRoundTripAllWorkloadSizes(t *testing.T) {
	// Round-trip stability across a spread of real table shapes: empty
	// functions, single-branch helpers, dense mains.
	srcs := []string{
		`void f() { }`,
		`int f(int x) { if (x) { return 1; } return 0; }`,
		testSrc,
	}
	for _, src := range srcs {
		_, _, im := encode(t, src)
		data := im.Marshal()
		im2, err := Unmarshal(data)
		if err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		data2 := im2.Marshal()
		if len(data) != len(data2) {
			t.Fatalf("re-marshal size changed: %d vs %d", len(data), len(data2))
		}
		for i := range data {
			if data[i] != data2[i] {
				t.Fatalf("re-marshal differs at byte %d", i)
			}
		}
	}
}
