// Command ipdsrun executes a MiniC program (or a built-in workload)
// under the IPDS runtime. Input lines come from stdin or from repeated
// -in flags; any infeasible-path alarm is reported with its location.
//
// With -telemetry the process serves live observability endpoints
// (/metrics in Prometheus text, /debug/vars, /debug/pprof/) while the
// program runs; -repeat keeps the workload running long enough to
// scrape, and -tracefile dumps compile/run phase spans as a Chrome
// trace-event JSON file.
//
// -eventfile records the detector's event stream — function entries,
// exits and committed branches — in the canonical textual form shared
// with the wire protocol's Batch frames (see internal/wire): `enter
// 0x40`, `branch 0x4a T`, `branch 0x52 NT`, `leave`, with '#' comment
// and blank lines ignored. A run that ends inside a function (exit_prog,
// a fault) is closed with a leave per open frame, so the stream ends at
// depth 0. The file replays against a daemon via `ipdsload
// -events-file`, and text ↔ wire round trips are byte-exact.
//
// Usage:
//
//	ipdsrun [-in line]... [-trace] [-telemetry :6060] [-repeat n]
//	        [-tracefile out.json] [-eventfile out.events]
//	        (file.mc | -workload name [-session])
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"repro/internal/ipds"
	"repro/internal/ipdsclient"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/vm"
	"repro/internal/wire"
	"repro/internal/workload"
)

type lineFlags []string

func (l *lineFlags) String() string { return fmt.Sprint(*l) }
func (l *lineFlags) Set(s string) error {
	*l = append(*l, s)
	return nil
}

func main() {
	var (
		inputs    lineFlags
		wlName    = flag.String("workload", "", "run a built-in server workload")
		session   = flag.Bool("session", false, "use the workload's bundled attack session as input")
		trace     = flag.Bool("trace", false, "print per-branch events")
		telemetry = flag.String("telemetry", "", "serve /metrics, /debug/vars and /debug/pprof on this address")
		repeat    = flag.Int("repeat", 1, "run the program this many times (keeps telemetry endpoints warm)")
		traceFile = flag.String("tracefile", "", "write compile/run phase spans as Chrome trace-event JSON")
		eventFile = flag.String("eventfile", "", "write the branch-event stream in canonical text form")
	)
	flag.Var(&inputs, "in", "input line (repeatable)")
	flag.Parse()

	var src, name string
	var input []string
	if *wlName != "" {
		w := workload.ByName(*wlName)
		if w == nil {
			fmt.Fprintf(os.Stderr, "ipdsrun: unknown workload %q\n", *wlName)
			os.Exit(1)
		}
		src, name = w.Source, w.Name
		if *session {
			input = w.AttackSession
		}
	} else {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: ipdsrun [flags] (file.mc | -workload name)")
			os.Exit(1)
		}
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "ipdsrun:", err)
			os.Exit(1)
		}
		src, name = string(data), flag.Arg(0)
	}
	if len(input) == 0 {
		input = append(input, inputs...)
	}
	if len(input) == 0 {
		// Read input lines from stdin when nothing else is given.
		sc := bufio.NewScanner(os.Stdin)
		for sc.Scan() {
			input = append(input, sc.Text())
		}
	}

	// Observability wiring: a registry for machine metrics and a tracer
	// for compile/run phases. Both stay nil (free no-ops) unless asked
	// for.
	var reg *obs.Registry
	var tr *obs.Tracer
	if *telemetry != "" || *traceFile != "" {
		reg = obs.NewRegistry()
		tr = obs.NewTracer(reg)
	}
	if *telemetry != "" {
		reg.PublishExpvar("ipds")
		srv, addr, err := obs.Serve(*telemetry, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ipdsrun: telemetry:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "ipdsrun: telemetry on http://%s/metrics\n", addr)
	}

	art, err := pipeline.CompileTraced(src, ir.DefaultOptions, tr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ipdsrun:", err)
		os.Exit(1)
	}

	if *repeat < 1 {
		*repeat = 1
	}
	var res vm.Result
	var m *ipds.Machine
	var alarms []ipds.Alarm
	var events ipdsclient.Tracer
	for i := 0; i < *repeat; i++ {
		stop := tr.Span("run")
		v := vm.New(art.Prog, vm.DefaultConfig, input)
		m = ipds.New(art.Image, ipds.DefaultConfig)
		m.Instrument(reg, "workload", name)
		alarms = alarms[:0]
		ipds.Attach(v, m, func(a ipds.Alarm) { alarms = append(alarms, a) })
		if *eventFile != "" {
			v.AddHooks(events.Hooks())
		}
		if *trace {
			v.AddHooks(vm.Hooks{OnBranch: func(br *ir.Instr, taken bool) {
				fmt.Printf("branch %#x taken=%v expected=%v\n", br.PC, taken, m.Status(br.PC))
			}})
		}
		res = v.Run()
		events.Close()
		stop()
	}

	if *eventFile != "" {
		f, err := os.Create(*eventFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ipdsrun:", err)
			os.Exit(1)
		}
		fmt.Fprintf(f, "# %s: %d events (%d runs)\n", name, len(events.Events), *repeat)
		if err := wire.WriteEventsText(f, events.Events); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "ipdsrun:", err)
			os.Exit(1)
		}
	}

	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ipdsrun:", err)
			os.Exit(1)
		}
		if err := tr.WriteChromeTrace(f); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "ipdsrun:", err)
			os.Exit(1)
		}
	}

	for _, line := range res.Output {
		fmt.Println(line)
	}
	fmt.Printf("-- %s: status=%v exit=%d steps=%d branches-checked=%d\n",
		name, res.Status, res.ExitCode, res.Steps, m.Stats().Verified)
	if res.Fault != nil {
		fmt.Printf("-- fault: %v\n", res.Fault)
	}
	for _, a := range alarms {
		fmt.Printf("-- ALARM: %s\n", a)
	}
	if len(alarms) > 0 {
		os.Exit(2)
	}
}
