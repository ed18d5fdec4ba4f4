package ipds

import (
	"encoding/binary"
	"testing"

	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/internal/progen"
	"repro/internal/vm"
	"repro/internal/wire"
)

// maxFuzzFlips bounds the single-branch flips one fuzz input applies.
const maxFuzzFlips = 16

// FuzzKernel is differential fuzzing of the verification kernel against
// the linked-list oracle, under the single-branch-flip fault model: the
// fuzzer picks a progen program (seed), one of its inputs (the program's
// generated input rotated by inputIdx), a set of branch events whose
// direction is flipped (flips, little-endian uint16 branch indices) and
// an OnBatch batch size. Properties:
//
//   - OnBranch per event and OnBatch at the chosen batch size agree with
//     the oracle on alarms, Stats, depth and cost (checkAgainstOracle);
//   - with no flips the run raises zero alarms — the paper's
//     zero-false-positive claim as a fuzz property;
//   - the trace malformed with empty-stack leaves, PCs outside every
//     function and enters of unknown bases, in strict and default mode,
//     neither panics nor diverges from the oracle;
//   - with the flight recorder on at a depth taken from the input
//     (1–128, so most depths round up) and every alarm captured, the
//     per-event and batched machines hold the eager reference recorder's
//     totals, windows and contexts after every call (checkRecorder), on
//     the trace, the malformed trace in both modes, and the trace under
//     table buffers small enough that spills and fills land in windows.
func FuzzKernel(f *testing.F) {
	f.Add(int64(0), uint8(0), []byte{}, uint16(512))
	f.Add(int64(1), uint8(3), []byte{7, 0}, uint16(1))
	f.Add(int64(2), uint8(17), []byte{0, 0, 1, 0, 2, 0}, uint16(7))
	f.Add(int64(42), uint8(5), []byte{40, 0, 200, 0}, uint16(64))
	f.Fuzz(func(t *testing.T, seed int64, inputIdx uint8, flips []byte, batch uint16) {
		p := progen.Generate(seed)
		art, err := pipeline.Compile(p.Source, ir.DefaultOptions)
		if err != nil {
			t.Fatalf("seed %d: progen program does not compile: %v", seed, err)
		}
		k := int(inputIdx) % len(p.Input)
		input := append(append([]string(nil), p.Input[k:]...), p.Input[:k]...)
		clean, res := captureTrace(art.Prog, input)
		if res.Status == vm.Faulted {
			t.Fatalf("seed %d: progen program faulted: %v", seed, res.Fault)
		}

		nb := 0
		for _, ev := range clean {
			if ev.Kind == wire.EvBranch {
				nb++
			}
		}
		flipSet := map[int]bool{}
		for i := 0; i+1 < len(flips) && len(flipSet) < maxFuzzFlips && nb > 0; i += 2 {
			flipSet[int(binary.LittleEndian.Uint16(flips[i:]))%nb] = true
		}
		trace := make([]wire.Event, len(clean))
		copy(trace, clean)
		b := 0
		for i := range trace {
			if trace[i].Kind == wire.EvBranch {
				if flipSet[b] {
					trace[i].Taken = !trace[i].Taken
				}
				b++
			}
		}

		bs := int(batch)%wire.MaxBatch + 1
		for _, mode := range []int{0, bs} {
			n := checkAgainstOracle(t, art.Image, DefaultConfig, trace, mode)
			if len(flipSet) == 0 && n != 0 {
				t.Fatalf("seed %d input %d: FALSE POSITIVE: clean run raised %d alarms", seed, k, n)
			}
		}
		bad := malform(trace, 1+int(inputIdx)%61)
		for _, strict := range []bool{false, true} {
			cfg := DefaultConfig
			cfg.Strict = strict
			checkAgainstOracle(t, art.Image, cfg, bad, bs)
		}

		depth := 1 + (int(inputIdx)+int(batch))%128
		strict := DefaultConfig
		strict.Strict = true
		for _, c := range []struct {
			cfg Config
			evs []wire.Event
		}{
			{DefaultConfig, trace},
			{DefaultConfig, bad},
			{strict, bad},
			{tinyTables, trace},
		} {
			cfg := c.cfg
			cfg.Recorder, cfg.CtxGap = depth, -1
			checkRecorder(t, New(art.Image, cfg), New(art.Image, cfg), c.evs, bs)
		}
	})
}
