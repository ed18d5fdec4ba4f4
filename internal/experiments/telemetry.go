package experiments

// Telemetry for the experiments harness: an optional registry/tracer
// pair threaded through the figure regenerators, and an
// observability-driven per-workload report — the paper's §6 runtime
// quantities (checked-branch coverage, BAT walk traffic, spill rate)
// read back from a live metrics registry instead of ad-hoc counters.

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/ipds"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/vm"
	"repro/internal/workload"
)

// telemetry is the harness-wide observability wiring. Both fields are
// nil-safe; SetTelemetry(nil, nil) turns everything off.
var telemetry struct {
	reg    *obs.Registry
	tracer *obs.Tracer
}

// SetTelemetry attaches a registry and tracer to every subsequent
// harness run: compile phases and per-workload experiment runs record
// spans, and instrumented machines feed the registry.
func SetTelemetry(reg *obs.Registry, tr *obs.Tracer) {
	telemetry.reg = reg
	telemetry.tracer = tr
}

func harnessTracer() *obs.Tracer { return telemetry.tracer }

// compile routes every harness compilation through the shared tracer.
func compile(src string, opts ir.Options) (*pipeline.Artifacts, error) {
	return pipeline.CompileTraced(src, opts, telemetry.tracer)
}

// TelemetryRow is one workload's observability-derived numbers: the
// per-workload table the paper's evaluation reports, read back from the
// metrics registry after an instrumented perf-session run.
type TelemetryRow struct {
	Program         string  `json:"program"`
	Branches        uint64  `json:"branches"`
	CheckedPct      float64 `json:"checked_pct"`           // verified / branches
	AvgBATPerBranch float64 `json:"avg_bat_per_branch"`    // BAT nodes walked / branch
	SpillPerKBranch float64 `json:"spills_per_k_branches"` // spill events per 1000 branches
	BranchesPerSec  float64 `json:"branches_per_sec"`      // wall-clock checking throughput
	Alarms          uint64  `json:"alarms"`
}

// TelemetryResult is the registry-snapshot report across workloads.
type TelemetryResult struct {
	Rows     []TelemetryRow
	Registry *obs.Registry
}

// TelemetryReport runs every workload's perf session on an instrumented
// machine and builds the per-workload table from the registry — the
// numbers flow source -> machine -> registry -> report, proving the
// full telemetry path end to end.
func TelemetryReport() (*TelemetryResult, error) {
	reg := telemetry.reg
	if reg == nil {
		reg = obs.NewRegistry()
	}
	out := &TelemetryResult{Registry: reg}
	for _, w := range workload.All() {
		stop := harnessTracer().Span("telemetry/" + w.Name)
		art, err := compile(w.Source, ir.DefaultOptions)
		if err != nil {
			stop()
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		vcfg := vm.DefaultConfig
		vcfg.RecordBranches = false
		v := vm.New(art.Prog, vcfg, w.PerfSession)
		m := ipds.New(art.Image, ipds.DefaultConfig)
		m.Instrument(reg, "workload", w.Name)
		ipds.Attach(v, m, nil)
		start := time.Now()
		res := v.Run()
		elapsed := time.Since(start)
		stop()
		if res.Status != vm.Exited {
			return nil, fmt.Errorf("%s: run ended %v: %v", w.Name, res.Status, res.Fault)
		}

		n := func(base string) string { return obs.Name(base, "workload", w.Name) }
		branches := reg.Counter(n("ipds_branches_total")).Value()
		verified := reg.Counter(n("ipds_verified_total")).Value()
		bat := reg.Counter(n("ipds_bat_accesses_total")).Value()
		spills := reg.Counter(n("ipds_spill_events_total")).Value()
		row := TelemetryRow{
			Program:  w.Name,
			Branches: branches,
			Alarms:   reg.Counter(n("ipds_alarms_total")).Value(),
		}
		if branches > 0 {
			row.CheckedPct = float64(verified) / float64(branches)
			row.AvgBATPerBranch = float64(bat) / float64(branches)
			row.SpillPerKBranch = 1000 * float64(spills) / float64(branches)
		}
		if secs := elapsed.Seconds(); secs > 0 {
			row.BranchesPerSec = float64(branches) / secs
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Render formats the telemetry report.
func (r *TelemetryResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Telemetry: per-workload runtime coverage from the metrics registry\n")
	fmt.Fprintf(&b, "%-10s %10s %10s %14s %14s %12s\n",
		"program", "branches", "checked %", "BAT/branch", "spills/kbr", "branches/s")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %10d %9.1f%% %14.3f %14.3f %12.0f\n",
			row.Program, row.Branches, 100*row.CheckedPct,
			row.AvgBATPerBranch, row.SpillPerKBranch, row.BranchesPerSec)
	}
	return b.String()
}
