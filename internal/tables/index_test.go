package tables

import "testing"

// TestFuncAtDenseIndex exercises the sorted-slice function index that
// replaced the base map: exact hits for every function, nil for misses
// below, between and above the known bases.
func TestFuncAtDenseIndex(t *testing.T) {
	p, _, im := encode(t, testSrc)
	var lo, hi uint64
	for _, fn := range p.Funcs {
		fi := im.FuncAt(fn.Base)
		if fi == nil || fi.Base != fn.Base {
			t.Fatalf("FuncAt(%#x) = %v, want image of %s", fn.Base, fi, fn.Name)
		}
		if lo == 0 || fn.Base < lo {
			lo = fn.Base
		}
		if fn.Base > hi {
			hi = fn.Base
		}
	}
	for _, miss := range []uint64{0, lo - 1, lo + 1, hi + 1, ^uint64(0)} {
		if fi := im.FuncAt(miss); fi != nil {
			t.Errorf("FuncAt(%#x) = %s, want nil", miss, fi.Name)
		}
	}
}

// TestFuncAtSurvivesRoundTrip checks that Unmarshal rebuilds the index
// (the index itself is never serialised).
func TestFuncAtSurvivesRoundTrip(t *testing.T) {
	p, _, im := encode(t, testSrc)
	again, err := Unmarshal(im.Marshal())
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	for _, fn := range p.Funcs {
		fi := again.FuncAt(fn.Base)
		if fi == nil || fi.Name != fn.Name {
			t.Fatalf("round-tripped FuncAt(%#x) lost %s", fn.Base, fn.Name)
		}
	}
}

// TestValidPCBinarySearch exercises the sorted branch-PC membership test
// that replaced the per-function PC set.
func TestValidPCBinarySearch(t *testing.T) {
	p, res, im := encode(t, testSrc)
	for _, fn := range p.Funcs {
		fi := im.FuncByName(fn.Name)
		ft := res.Tables[fn]
		real := map[uint64]bool{}
		for _, br := range ft.Branches {
			real[br.PC] = true
		}
		for _, br := range ft.Branches {
			if !fi.ValidPC(br.PC) {
				t.Errorf("%s: ValidPC rejected real branch %#x", fn.Name, br.PC)
			}
			// Near misses on both sides must be rejected.
			if !real[br.PC+1] && fi.ValidPC(br.PC+1) {
				t.Errorf("%s: ValidPC accepted %#x", fn.Name, br.PC+1)
			}
			if br.PC > 0 && !real[br.PC-1] && fi.ValidPC(br.PC-1) {
				t.Errorf("%s: ValidPC accepted %#x", fn.Name, br.PC-1)
			}
		}
		if len(ft.Branches) > 0 && (fi.ValidPC(0) || fi.ValidPC(^uint64(0))) {
			t.Errorf("%s: ValidPC accepted out-of-range PC", fn.Name)
		}
	}
}

// TestValidPCNoBranches: a *compiled* branchless function carries an
// empty (but present) branch-PC list, so every PC is rejected — no
// branch can be legal where none exist. A hand-built image that never
// installed the list has no metadata to check against and accepts
// everything (the unprotected-library behaviour).
func TestValidPCNoBranches(t *testing.T) {
	_, _, im := encode(t, `void f() { }`)
	fi := im.FuncByName("f")
	if fi == nil {
		t.Fatal("no image for f")
	}
	if len(fi.BranchPCs) != 0 {
		t.Skip("frontend emitted branches for a straight-line function")
	}
	for _, pc := range []uint64{0, fi.Base, fi.Base + 4, ^uint64(0)} {
		if fi.ValidPC(pc) {
			t.Errorf("compiled branchless function accepted PC %#x", pc)
		}
	}
	bare := &FuncImage{Name: "lib", Base: 0x9000}
	for _, pc := range []uint64{0, 0x9004, ^uint64(0)} {
		if !bare.ValidPC(pc) {
			t.Errorf("metadata-free image rejected PC %#x", pc)
		}
	}
}
