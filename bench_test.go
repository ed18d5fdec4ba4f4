package repro

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (go test -bench=. -benchmem). Each Benchmark
// reports the headline numbers of its figure via b.ReportMetric, so a
// bench run doubles as a reproduction run:
//
//	Figure 7  -> BenchmarkFigure7      (cfchange%, detected%)
//	Figure 8  -> BenchmarkFigure8      (bsv/bcv/bat bits)
//	Figure 9  -> BenchmarkFigure9      (overhead%, latency cycles)
//	Table 1   -> BenchmarkTable1Machine (machine-config render + timing)
//	§6 text   -> BenchmarkCompile, BenchmarkDetectionLatency,
//	             BenchmarkCheckingSpeed, BenchmarkAblationRegPromo

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/hashfn"
	"repro/internal/ipds"
	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/internal/progen"
	"repro/internal/tables"
	"repro/internal/tcache"
	"repro/internal/vm"
	"repro/internal/workload"
)

// BenchmarkFigure7 regenerates the detection-rate experiment (reduced
// to 20 attacks per program per iteration; the CLI default of 100 is
// cmd/report's job).
func BenchmarkFigure7(b *testing.B) {
	var last *experiments.Figure7Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure7(20, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(100*last.AvgCFChange, "cfchange%")
	b.ReportMetric(100*last.AvgDetected, "detected%")
	b.ReportMetric(100*last.Conditional, "conditional%")
}

// BenchmarkFigure8 regenerates the table-size measurement.
func BenchmarkFigure8(b *testing.B) {
	var last *experiments.Figure8Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure8()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.AvgBSVBits, "bsv-bits")
	b.ReportMetric(last.AvgBCVBits, "bcv-bits")
	b.ReportMetric(last.AvgBATBits, "bat-bits")
}

// BenchmarkFigure9 regenerates the normalized-performance experiment on
// the Table 1 machine.
func BenchmarkFigure9(b *testing.B) {
	cfg := cpu.DefaultConfig()
	var last *experiments.Figure9Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure9(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(100*last.AvgDegradation, "overhead%")
	b.ReportMetric(last.AvgDetectLat, "latency-cycles")
}

// BenchmarkTable1Machine times one server on the Table 1 configuration
// end to end (the machine the whole performance section runs on).
func BenchmarkTable1Machine(b *testing.B) {
	w := workload.ByName("httpd")
	art := pipeline.MustCompile(w.Source, ir.DefaultOptions)
	cfg := cpu.DefaultConfig()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		vcfg := vm.DefaultConfig
		vcfg.RecordBranches = false
		v := vm.New(art.Prog, vcfg, w.PerfSession)
		s := cpu.New(cfg, ipds.New(art.Image, ipds.DefaultConfig))
		s.Attach(v)
		if res := v.Run(); res.Status != vm.Exited {
			b.Fatal(res.Fault)
		}
		cycles = s.Stats().Cycles
	}
	b.ReportMetric(float64(cycles), "cycles")
}

// BenchmarkDetectionLatency isolates the §6 latency measurement on one
// branch-dense workload.
func BenchmarkDetectionLatency(b *testing.B) {
	w := workload.ByName("sendmail")
	art := pipeline.MustCompile(w.Source, ir.DefaultOptions)
	cfg := cpu.DefaultConfig()
	var lat float64
	for i := 0; i < b.N; i++ {
		vcfg := vm.DefaultConfig
		vcfg.RecordBranches = false
		v := vm.New(art.Prog, vcfg, w.PerfSession)
		s := cpu.New(cfg, ipds.New(art.Image, ipds.DefaultConfig))
		s.Attach(v)
		if res := v.Run(); res.Status != vm.Exited {
			b.Fatal(res.Fault)
		}
		lat = s.Stats().AvgDetectionLatency()
	}
	b.ReportMetric(lat, "latency-cycles")
}

// BenchmarkCheckingSpeed regenerates the checking-speed claim.
func BenchmarkCheckingSpeed(b *testing.B) {
	cfg := cpu.DefaultConfig()
	var util float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.CheckingSpeed(cfg)
		if err != nil {
			b.Fatal(err)
		}
		util = r.AvgUtilization
	}
	b.ReportMetric(util, "ipds-utilization")
}

// BenchmarkCompile regenerates the compilation-time note: the full
// pipeline over all ten servers per iteration.
func BenchmarkCompile(b *testing.B) {
	ws := workload.All()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, w := range ws {
			if _, err := pipeline.Compile(w.Source, ir.DefaultOptions); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkCompileParallel measures the per-function fan-out and the
// content-addressed table cache against BenchmarkCompile's sequential
// baseline, on a wide multi-function program (16 helpers) where the
// parallel section dominates. Run with
//
//	go test -bench 'Compile(Parallel|Cached)?$' -benchtime 2s
//
// and compare ns/op: parallel/4 plus a warm cache must clear the 1.5x
// speedup the PR claims (see BENCH_pr2.json for a committed run). On a
// single-CPU machine (GOMAXPROCS=1) the pool cannot beat sequential —
// the speedup then comes entirely from the content-addressed cache.
func BenchmarkCompileParallel(b *testing.B) {
	// Seed and shape chosen so the per-function phase dominates (the
	// hash search cost grows quickly with branch count) and no single
	// function monopolises the core phase — the workload a parallel
	// compile is for.
	prog := progen.GenerateWith(8, progen.Config{
		MaxHelpers: 24, MaxGlobals: 10, MaxLocals: 6,
		MaxStmts: 14, MaxDepth: 4, MaxExprDepth: 3, InputLines: 4,
	})

	run := func(b *testing.B, cfg pipeline.Config) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := pipeline.CompileWith(prog.Source, ir.DefaultOptions, cfg, nil); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("sequential", func(b *testing.B) {
		run(b, pipeline.Config{Workers: 1})
	})
	b.Run("parallel4", func(b *testing.B) {
		run(b, pipeline.Config{Workers: 4})
	})
	b.Run("parallel4-warm-cache", func(b *testing.B) {
		cache, err := tcache.New(0, "")
		if err != nil {
			b.Fatal(err)
		}
		cfg := pipeline.Config{Workers: 4, Cache: cache}
		// Warm every function once, outside the timed region.
		if _, err := pipeline.CompileWith(prog.Source, ir.DefaultOptions, cfg, nil); err != nil {
			b.Fatal(err)
		}
		warmMisses := cache.Stats().Misses
		b.ResetTimer()
		run(b, cfg)
		b.StopTimer()
		if s := cache.Stats(); s.Misses != warmMisses {
			b.Fatalf("timed region missed the warm cache %d times", s.Misses-warmMisses)
		}
	})
}

// BenchmarkAblationRegPromo regenerates the optimization ablation
// (DESIGN.md experiment index).
func BenchmarkAblationRegPromo(b *testing.B) {
	var last *experiments.AblationResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationRegPromo(10, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(100*last.Baseline.AvgDetected, "base-detected%")
	b.ReportMetric(100*last.Promoted.AvgDetected, "promoted-detected%")
}

// --- Micro-benchmarks of the substrates -----------------------------

// BenchmarkVMExecution measures raw interpreter throughput.
func BenchmarkVMExecution(b *testing.B) {
	w := workload.ByName("crond")
	art := pipeline.MustCompile(w.Source, ir.DefaultOptions)
	b.ResetTimer()
	var steps uint64
	for i := 0; i < b.N; i++ {
		vcfg := vm.DefaultConfig
		vcfg.RecordBranches = false
		v := vm.New(art.Prog, vcfg, w.PerfSession)
		res := v.Run()
		if res.Status != vm.Exited {
			b.Fatal(res.Fault)
		}
		steps += res.Steps
	}
	b.ReportMetric(float64(steps)/float64(b.N), "steps/run")
}

// BenchmarkIPDSOnBranch measures the runtime checker's per-event cost.
func BenchmarkIPDSOnBranch(b *testing.B) {
	art := pipeline.MustCompile(workload.ByName("telnetd").Source, ir.DefaultOptions)
	m := ipds.New(art.Image, ipds.DefaultConfig)
	main := art.Prog.ByName["main"]
	m.EnterFunc(main.Base)
	brs := main.Branches()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br := brs[i%len(brs)]
		m.OnBranch(br.PC, i%2 == 0)
	}
}

// BenchmarkHashSearch measures the perfect-hash parameter search.
func BenchmarkHashSearch(b *testing.B) {
	base := uint64(0x4000)
	var pcs []uint64
	for i := 0; i < 24; i++ {
		pcs = append(pcs, base+uint64(i*i*4+4*i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hashfn.Find(base, pcs, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableEncode measures BAT/BCV encoding.
func BenchmarkTableEncode(b *testing.B) {
	art := pipeline.MustCompile(workload.ByName("sshd").Source, ir.DefaultOptions)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tables.Encode(art.Tables); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCorrelationBuild measures the Figure 5 analysis itself.
func BenchmarkCorrelationBuild(b *testing.B) {
	art := pipeline.MustCompile(workload.ByName("sendmail").Source, ir.DefaultOptions)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Build(art.Prog, art.Alias)
	}
}
