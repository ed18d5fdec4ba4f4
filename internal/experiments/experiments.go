// Package experiments regenerates every table and figure of the
// paper's evaluation (§6): Figure 7 (detection rates), Figure 8 (table
// sizes), Figure 9 (normalized performance), Table 1 (machine
// configuration), plus the in-text measurements (detection latency,
// checking speed, compilation time) and the ablation suggested by the
// paper's note that compiler optimization removes correlations.
package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/ipds"
	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/internal/progen"
	"repro/internal/tcache"
	"repro/internal/vm"
	"repro/internal/workload"
)

// DefaultAttacks matches the paper: each server attacked 100 times
// independently.
const DefaultAttacks = 100

// Figure7Row is one benchmark's bars in Figure 7.
type Figure7Row struct {
	Program string
	Vuln    string
	// CFChange is the fraction of tamperings that changed control flow.
	CFChange float64
	// Detected is the fraction of all tamperings detected by IPDS.
	Detected float64
}

// Figure7Result is the detection-rate experiment.
type Figure7Result struct {
	Rows        []Figure7Row
	AvgCFChange float64 // paper: 49.4%
	AvgDetected float64 // paper: 29.3%
	// Conditional is AvgDetected/AvgCFChange (paper: 59.3%).
	Conditional float64
}

// Figure7 runs the simulated-attack campaigns for all ten servers.
// Buffer-overflow programs use the stack-only attack model; format
// string programs use arbitrary writes, as in the paper's methodology.
func Figure7(attacks int, seed int64) (*Figure7Result, error) {
	return figure7With(attacks, seed, ir.DefaultOptions)
}

func figure7With(attacks int, seed int64, opts ir.Options) (*Figure7Result, error) {
	return figure7Transformed(attacks, seed, opts, nil)
}

// figure7Transformed runs the detection campaign with an optional
// artifact transform (used by the component ablation to swap in tables
// built with parts of the algorithm disabled).
func figure7Transformed(attacks int, seed int64, opts ir.Options,
	transform func(*pipeline.Artifacts) (*pipeline.Artifacts, error)) (*Figure7Result, error) {
	out := &Figure7Result{}
	var sumCF, sumDet float64
	for i, w := range workload.All() {
		stop := harnessTracer().Span("figure7/" + w.Name)
		art, err := compile(w.Source, opts)
		if err != nil {
			stop()
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		if transform != nil {
			art, err = transform(art)
			if err != nil {
				stop()
				return nil, fmt.Errorf("%s: %w", w.Name, err)
			}
		}
		model := attack.Overflow
		if w.Vuln == "format string" {
			model = attack.ArbitraryWrite
		}
		// Spread the attack budget across every benign session so the
		// campaign covers the different protocol paths.
		sessions := w.Sessions()
		per := attacks / len(sessions)
		extra := attacks % len(sessions)
		trials, cfChanged, detected := 0, 0, 0
		for si, session := range sessions {
			n := per
			if si < extra {
				n++
			}
			if n == 0 {
				continue
			}
			c := &attack.Campaign{
				Name:      w.Name,
				Artifacts: art,
				Input:     session,
				Model:     model,
				Attacks:   n,
				Seed:      seed + int64(i)*7919 + int64(si)*104729,
			}
			res := c.Run()
			trials += len(res.Trials)
			cfChanged += res.CFChanged
			detected += res.Detected
		}
		stop()
		row := Figure7Row{
			Program:  w.Name,
			Vuln:     w.Vuln,
			CFChange: float64(cfChanged) / float64(trials),
			Detected: float64(detected) / float64(trials),
		}
		out.Rows = append(out.Rows, row)
		sumCF += row.CFChange
		sumDet += row.Detected
	}
	n := float64(len(out.Rows))
	out.AvgCFChange = sumCF / n
	out.AvgDetected = sumDet / n
	if out.AvgCFChange > 0 {
		out.Conditional = out.AvgDetected / out.AvgCFChange
	}
	return out, nil
}

// Render formats the result as the paper's figure-as-table.
func (r *Figure7Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7: detection rate for simulated attacks\n")
	fmt.Fprintf(&b, "%-10s %-16s %14s %14s\n", "program", "vulnerability", "CF-change %", "detected %")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %-16s %13.1f%% %13.1f%%\n",
			row.Program, row.Vuln, 100*row.CFChange, 100*row.Detected)
	}
	fmt.Fprintf(&b, "%-10s %-16s %13.1f%% %13.1f%%\n", "average", "",
		100*r.AvgCFChange, 100*r.AvgDetected)
	fmt.Fprintf(&b, "detected / CF-changing: %.1f%% (paper: 59.3%%)\n", 100*r.Conditional)
	return b.String()
}

// Figure8Row is one program's average per-function table sizes.
type Figure8Row struct {
	Program    string
	Functions  int
	AvgBSVBits float64
	AvgBCVBits float64
	AvgBATBits float64
}

// Figure8Result is the table-size experiment. Paper averages: BSV 34,
// BCV 17, BAT 393 bits.
type Figure8Result struct {
	Rows       []Figure8Row
	AvgBSVBits float64
	AvgBCVBits float64
	AvgBATBits float64
}

// Figure8 measures encoded table sizes across all ten servers.
func Figure8() (*Figure8Result, error) {
	out := &Figure8Result{}
	totalFns := 0
	var sumBSV, sumBCV, sumBAT float64
	for _, w := range workload.All() {
		art, err := compile(w.Source, ir.DefaultOptions)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		s := art.Image.Sizes()
		out.Rows = append(out.Rows, Figure8Row{
			Program:    w.Name,
			Functions:  s.Funcs,
			AvgBSVBits: s.AvgBSVBits,
			AvgBCVBits: s.AvgBCVBits,
			AvgBATBits: s.AvgBATBits,
		})
		totalFns += s.Funcs
		sumBSV += s.AvgBSVBits * float64(s.Funcs)
		sumBCV += s.AvgBCVBits * float64(s.Funcs)
		sumBAT += s.AvgBATBits * float64(s.Funcs)
	}
	out.AvgBSVBits = sumBSV / float64(totalFns)
	out.AvgBCVBits = sumBCV / float64(totalFns)
	out.AvgBATBits = sumBAT / float64(totalFns)
	return out, nil
}

// Render formats the result.
func (r *Figure8Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8: average table sizes per function (bits)\n")
	fmt.Fprintf(&b, "%-10s %6s %10s %10s %10s\n", "program", "funcs", "BSV", "BCV", "BAT")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %6d %10.1f %10.1f %10.1f\n",
			row.Program, row.Functions, row.AvgBSVBits, row.AvgBCVBits, row.AvgBATBits)
	}
	fmt.Fprintf(&b, "%-10s %6s %10.1f %10.1f %10.1f   (paper: 34 / 17 / 393)\n",
		"average", "", r.AvgBSVBits, r.AvgBCVBits, r.AvgBATBits)
	return b.String()
}

// Figure9Row is one benchmark's bar in Figure 9.
type Figure9Row struct {
	Program      string
	BaseCycles   uint64
	IPDSCycles   uint64
	Normalized   float64 // IPDS/base; paper average 1.0079
	Instructions uint64
	IPC          float64
	AvgDetectLat float64
	IPDSStalls   uint64
}

// Figure9Result is the performance experiment.
type Figure9Result struct {
	Rows           []Figure9Row
	AvgNormalized  float64
	AvgDegradation float64 // paper: 0.79%
	AvgDetectLat   float64 // paper: 11.7 cycles
}

// Figure9 times each server's perf session on the Table 1 machine with
// and without the IPDS unit.
func Figure9(cfg cpu.Config) (*Figure9Result, error) {
	out := &Figure9Result{}
	var sumNorm, sumLat float64
	for _, w := range workload.All() {
		stop := harnessTracer().Span("figure9/" + w.Name)
		art, err := compile(w.Source, ir.DefaultOptions)
		if err != nil {
			stop()
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		base, err := timeOne(art, w.Name, w.PerfSession, cfg, false)
		if err != nil {
			stop()
			return nil, fmt.Errorf("%s baseline: %w", w.Name, err)
		}
		guarded, err := timeOne(art, w.Name, w.PerfSession, cfg, true)
		stop()
		if err != nil {
			return nil, fmt.Errorf("%s guarded: %w", w.Name, err)
		}
		row := Figure9Row{
			Program:      w.Name,
			BaseCycles:   base.Cycles,
			IPDSCycles:   guarded.Cycles,
			Normalized:   float64(guarded.Cycles) / float64(base.Cycles),
			Instructions: base.Instructions,
			IPC:          base.IPC(),
			AvgDetectLat: guarded.AvgDetectionLatency(),
			IPDSStalls:   guarded.IPDSStallCycles,
		}
		out.Rows = append(out.Rows, row)
		sumNorm += row.Normalized
		sumLat += row.AvgDetectLat
	}
	n := float64(len(out.Rows))
	out.AvgNormalized = sumNorm / n
	out.AvgDegradation = out.AvgNormalized - 1
	out.AvgDetectLat = sumLat / n
	return out, nil
}

func timeOne(art *pipeline.Artifacts, name string, session []string, cfg cpu.Config, withIPDS bool) (cpu.Stats, error) {
	vcfg := vm.DefaultConfig
	vcfg.RecordBranches = false
	v := vm.New(art.Prog, vcfg, session)
	var m *ipds.Machine
	guard := "off"
	if withIPDS {
		m = ipds.New(art.Image, ipds.DefaultConfig)
		m.Instrument(telemetry.reg, "workload", name)
		guard = "on"
	}
	s := cpu.New(cfg, m)
	s.Instrument(telemetry.reg, "workload", name, "ipds", guard)
	s.Attach(v)
	res := v.Run()
	if res.Status != vm.Exited {
		return cpu.Stats{}, fmt.Errorf("run ended %v: %v", res.Status, res.Fault)
	}
	return s.Stats(), nil
}

// Render formats the result.
func (r *Figure9Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9: performance normalized to no-IPDS baseline\n")
	fmt.Fprintf(&b, "%-10s %12s %12s %10s %8s %10s\n",
		"program", "base cyc", "ipds cyc", "normalized", "IPC", "det.lat")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %12d %12d %10.4f %8.2f %10.1f\n",
			row.Program, row.BaseCycles, row.IPDSCycles, row.Normalized,
			row.IPC, row.AvgDetectLat)
	}
	fmt.Fprintf(&b, "average degradation: %.2f%% (paper: 0.79%%)\n", 100*r.AvgDegradation)
	fmt.Fprintf(&b, "average detection latency: %.1f cycles (paper: 11.7)\n", r.AvgDetectLat)
	return b.String()
}

// Table1 renders the simulated machine configuration.
func Table1(cfg cpu.Config) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: default parameters of the processor simulated\n")
	rows := [][2]string{
		{"Fetch queue", fmt.Sprintf("%d entries", cfg.FetchQueue)},
		{"Decode width", fmt.Sprintf("%d", cfg.DecodeWidth)},
		{"Issue width", fmt.Sprintf("%d", cfg.IssueWidth)},
		{"Commit width", fmt.Sprintf("%d", cfg.CommitWidth)},
		{"RUU size", fmt.Sprintf("%d", cfg.RUUSize)},
		{"LSQ size", fmt.Sprintf("%d", cfg.LSQSize)},
		{"Branch predictor", fmt.Sprintf("2 level (%d-bit history, %d-entry PHT)",
			cfg.PredictorHistBits, 1<<cfg.PredictorTableBits)},
		{"L1 I/D", fmt.Sprintf("%dK, %d way, %d cycle, %dB block",
			cfg.L1Sets*cfg.L1Ways*cfg.L1Line/1024, cfg.L1Ways, cfg.L1Latency, cfg.L1Line)},
		{"Unified L2", fmt.Sprintf("%dK, %d way, %dB block, latency %d cycles",
			cfg.L2Sets*cfg.L2Ways*cfg.L2Line/1024, cfg.L2Ways, cfg.L2Line, cfg.L2Latency)},
		{"Memory bus", fmt.Sprintf("%d byte wide", cfg.BusWidth)},
		{"Memory latency", fmt.Sprintf("first chunk %d cycles, inter chunk %d cycles",
			cfg.MemFirstChunk, cfg.MemInterChunk)},
		{"TLB miss", fmt.Sprintf("%d cycles", cfg.TLBMissCost)},
		{"BSV stack", fmt.Sprintf("%dK bits", ipds.DefaultConfig.BSVStackBits/1024)},
		{"BCV stack", fmt.Sprintf("%dK bits", ipds.DefaultConfig.BCVStackBits/1024)},
		{"BAT stack", fmt.Sprintf("%dK bits", ipds.DefaultConfig.BATStackBits/1024)},
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-18s %s\n", r[0], r[1])
	}
	return b.String()
}

// CompileTimeRow is one workload's compile-time measurements across
// the three pipeline modes.
type CompileTimeRow struct {
	Program string `json:"program"`
	// Elapsed is the historical sequential, uncached compile.
	Elapsed time.Duration `json:"sequential_ns"`
	// Parallel is the same compile with the per-function worker pool
	// at GOMAXPROCS.
	Parallel time.Duration `json:"parallel_ns"`
	// Cached is a parallel recompile against a warm content-addressed
	// table cache (every function hits).
	Cached time.Duration `json:"cached_ns"`
}

// CompileTimesResult records per-program compilation time (§6: "the
// compilation time for all benchmarks is up to a few seconds"), plus
// the speedups of the parallel and cached pipeline modes over the
// sequential baseline. The frozen BENCH_pr2.json holds it as JSON.
type CompileTimesResult struct {
	Rows          []CompileTimeRow `json:"rows"`
	Workers       int              `json:"workers"`
	Total         time.Duration    `json:"total_ns"`
	TotalParallel time.Duration    `json:"total_parallel_ns"`
	TotalCached   time.Duration    `json:"total_cached_ns"`
}

// ParallelSpeedup is the sequential/parallel wall-clock ratio.
func (r *CompileTimesResult) ParallelSpeedup() float64 {
	if r.TotalParallel == 0 {
		return 0
	}
	return float64(r.Total) / float64(r.TotalParallel)
}

// CachedSpeedup is the sequential/warm-cache wall-clock ratio.
func (r *CompileTimesResult) CachedSpeedup() float64 {
	if r.TotalCached == 0 {
		return 0
	}
	return float64(r.Total) / float64(r.TotalCached)
}

// compileReps is the best-of-N repetition count for each compile-time
// measurement: the workloads compile in well under a millisecond, so a
// single sample is mostly scheduler noise.
const compileReps = 3

// bestOf times f compileReps times and keeps the fastest run.
func bestOf(f func() error) (time.Duration, error) {
	var best time.Duration
	for i := 0; i < compileReps; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		if d := time.Since(start); i == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// compileTimeSources returns the measured programs: the paper's ten
// servers plus one wide synthetic program (the BenchmarkCompileParallel
// workload) whose per-function phase dominates — the regime the
// parallel and cached modes exist for.
func compileTimeSources() []*workload.Workload {
	ws := workload.All()
	wide := progen.GenerateWith(8, progen.Config{
		MaxHelpers: 24, MaxGlobals: 10, MaxLocals: 6,
		MaxStmts: 14, MaxDepth: 4, MaxExprDepth: 3, InputLines: 4,
	})
	return append(ws, &workload.Workload{Name: "progen-wide", Source: wide.Source})
}

// CompileTimes measures the full pipeline per program in all three
// modes: sequential (the paper's measurement), parallel fan-out, and a
// warm-cache recompile. Each mode takes the best of three runs.
func CompileTimes() (*CompileTimesResult, error) {
	out := &CompileTimesResult{Workers: runtime.GOMAXPROCS(0)}
	for _, w := range compileTimeSources() {
		row := CompileTimeRow{Program: w.Name}
		var err error

		row.Elapsed, err = bestOf(func() error {
			_, err := compile(w.Source, ir.DefaultOptions)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}

		pcfg := pipeline.Config{Workers: 0} // GOMAXPROCS
		row.Parallel, err = bestOf(func() error {
			_, err := pipeline.CompileWith(w.Source, ir.DefaultOptions, pcfg, telemetry.tracer)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s: parallel: %w", w.Name, err)
		}

		cache, cerr := tcache.New(0, "")
		if cerr != nil {
			return nil, cerr
		}
		ccfg := pipeline.Config{Workers: 0, Cache: cache}
		if _, err := pipeline.CompileWith(w.Source, ir.DefaultOptions, ccfg, nil); err != nil {
			return nil, fmt.Errorf("%s: cache warmup: %w", w.Name, err)
		}
		row.Cached, err = bestOf(func() error {
			_, err := pipeline.CompileWith(w.Source, ir.DefaultOptions, ccfg, telemetry.tracer)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s: cached: %w", w.Name, err)
		}

		out.Rows = append(out.Rows, row)
		out.Total += row.Elapsed
		out.TotalParallel += row.Parallel
		out.TotalCached += row.Cached
	}
	return out, nil
}

// Render formats the result.
func (r *CompileTimesResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Compilation time (paper: up to a few seconds per benchmark)\n")
	fmt.Fprintf(&b, "  %-10s %12s %12s %12s\n", "program", "sequential", fmt.Sprintf("parallel(%d)", r.Workers), "warm-cache")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-10s %12v %12v %12v\n", row.Program, row.Elapsed, row.Parallel, row.Cached)
	}
	fmt.Fprintf(&b, "  %-10s %12v %12v %12v\n", "total", r.Total, r.TotalParallel, r.TotalCached)
	fmt.Fprintf(&b, "  speedup vs sequential: parallel %.2fx, warm-cache %.2fx\n",
		r.ParallelSpeedup(), r.CachedSpeedup())
	return b.String()
}

// CheckingSpeedRow compares IPDS processing throughput to program
// execution (§6: "the average checking speed is normally higher than
// the program execution").
type CheckingSpeedRow struct {
	Program     string
	Cycles      uint64
	IPDSBusy    uint64
	Utilization float64 // IPDSBusy / Cycles; < 1 means the checker keeps up
}

// CheckingSpeedResult aggregates utilization across servers.
type CheckingSpeedResult struct {
	Rows           []CheckingSpeedRow
	AvgUtilization float64
}

// CheckingSpeed measures the IPDS unit's busy fraction on the Table 1
// machine.
func CheckingSpeed(cfg cpu.Config) (*CheckingSpeedResult, error) {
	out := &CheckingSpeedResult{}
	var sum float64
	for _, w := range workload.All() {
		art, err := compile(w.Source, ir.DefaultOptions)
		if err != nil {
			return nil, err
		}
		st, err := timeOne(art, w.Name, w.PerfSession, cfg, true)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		row := CheckingSpeedRow{
			Program:     w.Name,
			Cycles:      st.Cycles,
			IPDSBusy:    st.IPDSBusyCycles,
			Utilization: float64(st.IPDSBusyCycles) / float64(st.Cycles),
		}
		out.Rows = append(out.Rows, row)
		sum += row.Utilization
	}
	out.AvgUtilization = sum / float64(len(out.Rows))
	return out, nil
}

// Render formats the result.
func (r *CheckingSpeedResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Checking speed: IPDS busy fraction (<1 means checking outpaces execution)\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-10s busy %10d / %12d cycles = %.3f\n",
			row.Program, row.IPDSBusy, row.Cycles, row.Utilization)
	}
	fmt.Fprintf(&b, "  average utilization %.3f\n", r.AvgUtilization)
	return b.String()
}

// ComponentAblationResult measures how much each correlation-discovery
// component of the Figure 5 algorithm contributes to detection.
type ComponentAblationResult struct {
	Full        *Figure7Result // the complete algorithm
	NoStoreLoad *Figure7Result // store→load discovery disabled
	SelfOnly    *Figure7Result // only same-branch repetition correlations
	None        *Figure7Result // all discovery disabled (detector blind)
}

// AblationComponents runs the Figure 7 campaign under progressively
// weakened analyses.
func AblationComponents(attacks int, seed int64) (*ComponentAblationResult, error) {
	variant := func(cfg core.Config) (*Figure7Result, error) {
		return figure7Transformed(attacks, seed, ir.DefaultOptions,
			func(a *pipeline.Artifacts) (*pipeline.Artifacts, error) {
				return a.Rebuild(cfg)
			})
	}
	full, err := Figure7(attacks, seed)
	if err != nil {
		return nil, err
	}
	noSL, err := variant(core.Config{DisableStoreLoad: true})
	if err != nil {
		return nil, err
	}
	selfOnly, err := variant(core.Config{SelfOnly: true})
	if err != nil {
		return nil, err
	}
	none, err := variant(core.Config{DisableStoreLoad: true, DisableLoadLoad: true})
	if err != nil {
		return nil, err
	}
	return &ComponentAblationResult{
		Full: full, NoStoreLoad: noSL, SelfOnly: selfOnly, None: none,
	}, nil
}

// Render formats the component ablation.
func (r *ComponentAblationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Component ablation: detection vs analysis strength\n")
	fmt.Fprintf(&b, "  %-26s %12s %12s\n", "analysis", "CF-change %", "detected %")
	row := func(name string, f *Figure7Result) {
		fmt.Fprintf(&b, "  %-26s %11.1f%% %11.1f%%\n", name,
			100*f.AvgCFChange, 100*f.AvgDetected)
	}
	row("full algorithm", r.Full)
	row("no store→load", r.NoStoreLoad)
	row("self correlations only", r.SelfOnly)
	row("no correlations", r.None)
	return b.String()
}

// InliningExtensionResult measures the repository's future-work
// extension: inlining small leaf callees extends the function-local
// correlation analysis across former call boundaries (the paper
// explicitly avoids inter-procedural analysis; inlining recovers some
// of that precision with no new analysis machinery).
type InliningExtensionResult struct {
	Baseline *Figure7Result
	Inlined  *Figure7Result
	// Checked branches across all workload functions, before/after.
	BaselineChecked int
	InlinedChecked  int
	// Average per-function BAT bits, before/after (the cost side).
	BaselineBATBits float64
	InlinedBATBits  float64
}

// ExtensionInlining runs the detection campaign with and without the
// inliner and reports the precision/space trade.
func ExtensionInlining(attacks int, seed int64) (*InliningExtensionResult, error) {
	out := &InliningExtensionResult{}
	var err error
	out.Baseline, err = Figure7(attacks, seed)
	if err != nil {
		return nil, err
	}
	out.Inlined, err = figure7With(attacks, seed,
		ir.Options{Forwarding: true, InlineSmall: true})
	if err != nil {
		return nil, err
	}
	baseFns, inlFns := 0, 0
	for _, w := range workload.All() {
		base, err := compile(w.Source, ir.DefaultOptions)
		if err != nil {
			return nil, err
		}
		inl, err := compile(w.Source, ir.Options{Forwarding: true, InlineSmall: true})
		if err != nil {
			return nil, err
		}
		for _, ft := range base.Tables.Tables {
			out.BaselineChecked += ft.NumChecked()
		}
		for _, ft := range inl.Tables.Tables {
			out.InlinedChecked += ft.NumChecked()
		}
		// Function-weighted averages, matching Figure 8's aggregation.
		bs, is := base.Image.Sizes(), inl.Image.Sizes()
		out.BaselineBATBits += bs.AvgBATBits * float64(bs.Funcs)
		out.InlinedBATBits += is.AvgBATBits * float64(is.Funcs)
		baseFns += bs.Funcs
		inlFns += is.Funcs
	}
	out.BaselineBATBits /= float64(baseFns)
	out.InlinedBATBits /= float64(inlFns)
	return out, nil
}

// Render formats the extension result.
func (r *InliningExtensionResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: inlining small leaf callees (cross-call correlations)\n")
	fmt.Fprintf(&b, "  %-22s %12s %12s %14s %8s %9s\n",
		"", "CF-change %", "detected %", "det/CF-chg %", "checked", "BAT bits")
	row := func(name string, f *Figure7Result, checked int, bat float64) {
		fmt.Fprintf(&b, "  %-22s %11.1f%% %11.1f%% %13.1f%% %8d %9.1f\n", name,
			100*f.AvgCFChange, 100*f.AvgDetected, 100*f.Conditional, checked, bat)
	}
	row("function-local (paper)", r.Baseline, r.BaselineChecked, r.BaselineBATBits)
	row("with inlining", r.Inlined, r.InlinedChecked, r.InlinedBATBits)
	return b.String()
}

// AblationResult contrasts detection with and without the aggressive
// register-promotion optimization (the paper: "compiler optimizations
// can remove some correlations, reducing the detection rate").
type AblationResult struct {
	Baseline *Figure7Result
	Promoted *Figure7Result
}

// AblationRegPromo runs Figure 7 twice: with the default pipeline and
// with extended-basic-block load promotion enabled.
func AblationRegPromo(attacks int, seed int64) (*AblationResult, error) {
	base, err := figure7With(attacks, seed, ir.DefaultOptions)
	if err != nil {
		return nil, err
	}
	promoted, err := figure7With(attacks, seed,
		ir.Options{Forwarding: true, RegionPromotion: true})
	if err != nil {
		return nil, err
	}
	return &AblationResult{Baseline: base, Promoted: promoted}, nil
}

// Render formats the ablation.
func (r *AblationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: register promotion removes correlations\n")
	fmt.Fprintf(&b, "  %-24s %12s %12s\n", "", "CF-change %", "detected %")
	fmt.Fprintf(&b, "  %-24s %11.1f%% %11.1f%%\n", "default pipeline",
		100*r.Baseline.AvgCFChange, 100*r.Baseline.AvgDetected)
	fmt.Fprintf(&b, "  %-24s %11.1f%% %11.1f%%\n", "with region promotion",
		100*r.Promoted.AvgCFChange, 100*r.Promoted.AvgDetected)
	return b.String()
}
