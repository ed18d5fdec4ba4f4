// Command perfsim regenerates the paper's performance results on the
// Table 1 machine: Figure 9 (normalized runtime with the IPDS unit),
// the detection-latency measurement, the checking-speed claim and the
// compilation-time note. -table1 prints the machine configuration.
//
// Usage:
//
//	perfsim [-table1] [-checking] [-compile]
//
// -compile measures all three pipeline modes (sequential, parallel,
// warm-cache).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() {
	var (
		table1    = flag.Bool("table1", false, "print the simulated machine configuration")
		checking  = flag.Bool("checking", false, "also measure IPDS checking speed")
		compile   = flag.Bool("compile", false, "also measure compilation times")
		telemetry = flag.String("telemetry", "", "serve /metrics, /debug/vars and /debug/pprof on this address")
	)
	flag.Parse()

	if *telemetry != "" {
		reg := obs.NewRegistry()
		experiments.SetTelemetry(reg, obs.NewTracer(reg))
		reg.PublishExpvar("ipds")
		srv, addr, err := obs.Serve(*telemetry, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfsim: telemetry:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "perfsim: telemetry on http://%s/metrics\n", addr)
	}

	cfg := cpu.DefaultConfig()
	if *table1 {
		fmt.Print(experiments.Table1(cfg))
		fmt.Println()
	}

	r, err := experiments.Figure9(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfsim:", err)
		os.Exit(1)
	}
	fmt.Print(r.Render())

	if *checking {
		c, err := experiments.CheckingSpeed(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfsim:", err)
			os.Exit(1)
		}
		fmt.Println()
		fmt.Print(c.Render())
	}
	if *compile {
		ct, err := experiments.CompileTimes()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfsim:", err)
			os.Exit(1)
		}
		fmt.Println()
		fmt.Print(ct.Render())
	}
}
