// Command ipdsfuzz stress-tests the zero-false-positive guarantee: it
// generates random MiniC programs (internal/progen), compiles each
// through the full pipeline, runs it clean under the IPDS runtime, and
// fails loudly on any alarm, fault, or compiler error. Optionally each
// program is also attacked to accumulate aggregate detection numbers.
// (The wire decoder has its own native fuzz target, FuzzDecode in
// internal/wire, run by `make fuzz-gate`.)
//
// Usage:
//
//	ipdsfuzz [-n 1000] [-seed 0] [-attacks 0] [-v]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/attack"
	"repro/internal/ipds"
	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/internal/progen"
	"repro/internal/vm"
)

func main() {
	var (
		n       = flag.Int("n", 1000, "number of random programs")
		seed    = flag.Int64("seed", 0, "first seed")
		attacks = flag.Int("attacks", 0, "tampering attacks per program (0 = clean runs only)")
		verbose = flag.Bool("v", false, "log every seed")
	)
	flag.Parse()

	var totTrials, totCF, totDet int
	for i := 0; i < *n; i++ {
		s := *seed + int64(i)
		p := progen.Generate(s)
		art, err := pipeline.Compile(p.Source, ir.DefaultOptions)
		if err != nil {
			fail(s, p.Source, "compile error: %v", err)
		}
		v := vm.New(art.Prog, vm.DefaultConfig, p.Input)
		m := ipds.New(art.Image, ipds.DefaultConfig)
		ipds.Attach(v, m)
		res := v.Run()
		if res.Status == vm.Faulted {
			fail(s, p.Source, "generated program faulted: %v", res.Fault)
		}
		if len(m.Alarms()) > 0 {
			fail(s, p.Source, "FALSE POSITIVE: %v", m.Alarms()[0])
		}
		if *attacks > 0 {
			c := &attack.Campaign{
				Name:      fmt.Sprintf("seed%d", s),
				Artifacts: art,
				Input:     p.Input,
				Model:     attack.ArbitraryWrite,
				Attacks:   *attacks,
				Seed:      s * 31,
			}
			r := c.Run()
			totTrials += len(r.Trials)
			totCF += r.CFChanged
			totDet += r.Detected
		}
		if *verbose {
			fmt.Printf("seed %d ok (%d steps)\n", s, res.Steps)
		}
	}
	fmt.Printf("ipdsfuzz: %d programs, 0 false positives, 0 faults\n", *n)
	if totTrials > 0 {
		fmt.Printf("attacks: %d total, %d changed control flow, %d detected (%.1f%% of CF-changing)\n",
			totTrials, totCF, totDet, 100*float64(totDet)/float64(max(1, totCF)))
	}
}

func fail(seed int64, src, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ipdsfuzz: seed %d: %s\n", seed, fmt.Sprintf(format, args...))
	fmt.Fprintf(os.Stderr, "--- source ---\n%s\n", src)
	os.Exit(1)
}
