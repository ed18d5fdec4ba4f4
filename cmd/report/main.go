// Command report runs the complete evaluation — every table, figure,
// in-text measurement and ablation — and emits one consolidated plain
// text report. EXPERIMENTS.md's numbers are produced by this tool.
//
// The -obs mode instead runs every workload on a metrics-instrumented
// machine and renders the registry snapshot as the per-workload
// observability table (checked %, avg BAT accesses/branch, spill
// rate).
//
// Usage:
//
//	report [-attacks 100] [-seed 1]
//	report -obs
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/obs"
)

// obsReport runs and prints the observability-driven per-workload
// report.
func obsReport() {
	// TelemetryReport reuses the registry installed by -telemetry (so a
	// live scrape sees the same numbers) or creates its own.
	r, err := experiments.TelemetryReport()
	if err != nil {
		fmt.Fprintln(os.Stderr, "report: telemetry:", err)
		os.Exit(1)
	}
	fmt.Print(r.Render())
}

func main() {
	var (
		attacks   = flag.Int("attacks", experiments.DefaultAttacks, "attacks per program")
		seed      = flag.Int64("seed", 1, "campaign base seed")
		obsMode   = flag.Bool("obs", false, "render the observability-derived per-workload table instead of the full report")
		telemetry = flag.String("telemetry", "", "serve /metrics, /debug/vars and /debug/pprof on this address")
	)
	flag.Parse()

	if *telemetry != "" {
		reg := obs.NewRegistry()
		experiments.SetTelemetry(reg, obs.NewTracer(reg))
		reg.PublishExpvar("ipds")
		srv, addr, err := obs.Serve(*telemetry, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "report: telemetry:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "report: telemetry on http://%s/metrics\n", addr)
	}

	if *obsMode {
		obsReport()
		return
	}

	cfg := cpu.DefaultConfig()
	fmt.Printf("IPDS reproduction report (attacks=%d seed=%d)\n\n", *attacks, *seed)

	fmt.Print(experiments.Table1(cfg))
	fmt.Println()

	section := func(name string, f func() (interface{ Render() string }, error)) {
		r, err := f()
		if err != nil {
			fmt.Fprintf(os.Stderr, "report: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Print(r.Render())
		fmt.Println()
	}

	section("figure7", func() (interface{ Render() string }, error) {
		return experiments.Figure7(*attacks, *seed)
	})
	section("figure8", func() (interface{ Render() string }, error) {
		return experiments.Figure8()
	})
	section("figure9", func() (interface{ Render() string }, error) {
		return experiments.Figure9(cfg)
	})
	section("checking-speed", func() (interface{ Render() string }, error) {
		return experiments.CheckingSpeed(cfg)
	})
	section("compile-times", func() (interface{ Render() string }, error) {
		return experiments.CompileTimes()
	})
	section("ablation-components", func() (interface{ Render() string }, error) {
		return experiments.AblationComponents(*attacks, *seed)
	})
	section("ablation-regpromo", func() (interface{ Render() string }, error) {
		return experiments.AblationRegPromo(*attacks, *seed)
	})
	section("extension-inlining", func() (interface{ Render() string }, error) {
		return experiments.ExtensionInlining(*attacks, *seed)
	})
}
