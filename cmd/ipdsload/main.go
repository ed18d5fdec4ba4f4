// Command ipdsload is the load generator for the ipdsd daemon: it
// captures a workload's branch-event trace once, then replays it from
// N concurrent client sessions, reporting aggregate events/sec and
// ack/alarm latency percentiles. With -tamper the replayed trace has
// branch directions flipped, so the run also measures alarm delivery.
//
// The image hash is recomputed locally from the same source, so the
// daemon must be serving the same workload (compilation is
// deterministic: same source, same image, same hash).
//
// With -selfserve the process starts an in-process daemon engine on a
// loopback listener and loads that instead of a remote ipdsd — one
// command for benchmarks and CI smoke runs. Self-served runs also
// print the daemon-side batch-verify latency quantiles, the kernel's
// verify cost per event and the CoreStats breakdown (sessions, events,
// alarms and kernel cost per row), read from the in-process daemon. To load a routed fleet, point -addr at an ipdsrouter.
//
// Usage:
//
//	ipdsload [-addr host:7077 | -selfserve] [-workload telnetd]
//	         [-sessions n] [-events n] [-batch n] [-tamper stride]
//	         [-repeat n] [-events-file in.events]
//	         [-trace-sample n] [-incidents] [-cpuprofile cpu.pprof]
//	         [-memprofile mem.pprof] [file.mc]
//	ipdsload trace [-url http://host:6060] [-spans] [-out file]
//
// -repeat runs the load n times against the same server and reports
// the fastest run — best-of-n is the noise-robust estimator on shared
// hosts. The daemon-side verify quantiles are cumulative over all
// repeats.
//
// The in-process daemon serves each session on its own goroutine, so
// GOMAXPROCS bounds its parallelism: GOMAXPROCS=1 gives the
// single-core control run the scale gate compares against.
//
// -events-file replays a canonical-text event file (ipdsrun
// -eventfile) instead of a capture. The load loops the trace, so a
// file that ends inside open frames is closed at depth 0 first, the
// way a capture is: otherwise every pass would deepen the daemon's
// table stack until it ends the session at the call-depth limit.
//
// -incidents reports the daemon's incident pipeline after the run:
// the alarm→incident fold reduction and the top ranked incidents.
// Under -selfserve the report is the in-process daemon's full
// /debug/incidents view; against a remote daemon it is the drain-time
// wire copy the daemon streamed to the last-closing session.
//
// -trace-sample N stamps every Nth Batch frame each session writes
// with a wire-level trace id and an origin timestamp taken at the
// write; the daemon expands each stamped batch into a per-stage span
// record. Traced runs replay the same pre-encoded block as untraced
// ones — stamped frames go out as copies — so tracing does not change
// the client's send path. Self-served runs then report the end-to-end
// batch latency quantiles from those spans. Against a remote daemon,
// fetch the spans with the trace subcommand:
//
//	ipdsload trace [-url http://host:6060] [-spans] [-out trace.json]
//
// which downloads the daemon's /debug/trace document — Chrome
// trace-event JSON, loadable in chrome://tracing or Perfetto — or,
// with -spans, the raw span records.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/ipdsclient"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/internal/workload"
)

func main() {
	// The trace subcommand is its own tiny tool: fetch a daemon's span
	// rings, no load run involved.
	if len(os.Args) > 1 && os.Args[1] == "trace" {
		os.Exit(traceCmd(os.Args[2:]))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is one load run: it parses args, writes the report to stdout and
// diagnostics to stderr, and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ipdsload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", "127.0.0.1:7077", "ipdsd address")
		selfserve = fs.Bool("selfserve", false, "serve in-process instead of dialing a remote daemon")
		wlName    = fs.String("workload", "telnetd", "built-in workload to replay")
		sessions  = fs.Int("sessions", 8, "concurrent client sessions")
		events    = fs.Int("events", 100000, "minimum events per session (trace loops to fill)")
		batch     = fs.Int("batch", 512, "events per wire frame")
		tamper    = fs.Int("tamper", 0, "flip every stride-th branch (0 = benign replay)")
		repeat    = fs.Int("repeat", 1, "run the load n times and report the best run (suppresses host noise)")
		evFile    = fs.String("events-file", "", "replay this canonical-text event file (from ipdsrun -eventfile) instead of capturing")
		traceN    = fs.Int("trace-sample", 0, "stamp every Nth batch with a wire trace id + origin timestamp (0 = off)")
		incidents = fs.Bool("incidents", false, "report the daemon's ranked incident fold of the alarm flood after the run")
		timeout   = fs.Duration("timeout", 60*time.Second, "per-session network timeout")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile of the load run to this file")
		memProf   = fs.String("memprofile", "", "write an allocation profile (after the run) to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(a ...any) int {
		fmt.Fprintln(stderr, append([]any{"ipdsload:"}, a...)...)
		return 1
	}

	var src, name string
	var input []string
	if fs.NArg() == 1 {
		data, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		src, name = string(data), filepath.Base(fs.Arg(0))
	} else {
		w := workload.ByName(*wlName)
		if w == nil {
			return fail(fmt.Sprintf("unknown workload %q (have %v)", *wlName, workload.Names()))
		}
		src, name, input = w.Source, w.Name, w.AttackSession
	}

	art, err := pipeline.CompileWith(src, ir.DefaultOptions, pipeline.Config{}, nil)
	if err != nil {
		return fail("compile:", err)
	}
	hash := art.Image.Hash()

	var trace []wire.Event
	if *evFile != "" {
		f, err := os.Open(*evFile)
		if err != nil {
			return fail(err)
		}
		trace, err = wire.ReadEventsText(f)
		f.Close()
		if err != nil {
			return fail(fmt.Sprintf("%s: %v", *evFile, err))
		}
		var added int
		if trace, added = closeFrames(trace); added > 0 {
			fmt.Fprintf(stderr, "ipdsload: %s: appended %d leave(s) to end each pass at depth 0\n", *evFile, added)
		}
	} else {
		trace = ipdsclient.Capture(art, input)
	}
	if *tamper > 0 {
		trace = ipdsclient.Tamper(trace, *tamper)
	}
	if len(trace) == 0 {
		return fail("captured an empty trace")
	}

	target := *addr
	var reg *obs.Registry
	var srv *server.Server
	if *selfserve {
		reg = obs.NewRegistry()
		store := server.NewImageStore(nil)
		store.Add(name, art.Image)
		srv = server.New(store, server.Config{Reg: reg})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		go srv.Serve(ln)
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		}()
		target = ln.Addr().String()
	}

	// Profiling brackets only the load run itself: compilation and trace
	// capture above stay out of the profile so the hot-path picture is
	// the serve loop, not the frontend.
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail("cpuprofile:", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	// With -repeat the load runs several times against the same server
	// and the fastest run is the one reported: aggregate throughput on a
	// shared host is noisy, and the best of n is the stable estimator of
	// what the serve path can actually sustain.
	var res ipdsclient.LoadResult
	for i := 0; i < *repeat; i++ {
		r := ipdsclient.RunLoad(ipdsclient.LoadConfig{
			Addr:          target,
			Image:         hash,
			Program:       name,
			Trace:         trace,
			Sessions:      *sessions,
			EventsPerConn: *events,
			Batch:         *batch,
			Timeout:       *timeout,
			TraceSample:   *traceN,
		})
		for _, err := range r.Errors {
			fmt.Fprintln(stderr, "ipdsload:", err)
		}
		if *repeat > 1 {
			fmt.Fprintf(stdout, "-- run %d/%d: %.0f events/sec\n", i+1, *repeat, r.EventsSec)
		}
		if i == 0 || len(r.Errors) > 0 || r.EventsSec > res.EventsSec {
			res = r
		}
		if len(r.Errors) > 0 {
			break
		}
	}

	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			return fail(err)
		}
		// Flush pending allocation records so the profile reflects the
		// whole run, then write the allocs view (total allocation sites,
		// the right lens for a zero-allocation hot path).
		runtime.GC()
		err = pprof.Lookup("allocs").WriteTo(f, 0)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fail("memprofile:", err)
		}
	}

	fmt.Fprintf(stdout, "-- %s: %d sessions, %d events (%d alarms, %d contexts) in %v\n",
		name, res.Sessions, res.Events, res.Alarms, res.AlarmCtxs, res.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(stdout, "-- throughput: %.0f events/sec aggregate\n", res.EventsSec)
	fmt.Fprintf(stdout, "-- ack latency:   p50=%v p95=%v p99=%v\n", res.AckP50, res.AckP95, res.AckP99)
	if res.Alarms > 0 {
		fmt.Fprintf(stdout, "-- alarm latency: p50=%v p95=%v p99=%v\n", res.AlarmP50, res.AlarmP95, res.AlarmP99)
	}
	if srv != nil {
		if spanN := len(srv.TraceSpans()); spanN > 0 {
			p50, p99 := srv.TraceE2E()
			fmt.Fprintf(stdout, "-- e2e latency:   p50=%v p99=%v (%d traced batches, origin→ack)\n",
				time.Duration(p50), time.Duration(p99), spanN)
		}
		verify := reg.Histogram("server_verify_ns").Snapshot()
		fmt.Fprintf(stdout, "-- batch verify:  p50=%v p99=%v p99.9=%v (%d batches)\n",
			time.Duration(verify.Quantile(0.50)), time.Duration(verify.Quantile(0.99)),
			time.Duration(verify.Quantile(0.999)), verify.Count)

		// CoreStats breakdown: counters are cumulative over all repeats;
		// each row's events/sec is its event share of the reported
		// aggregate rate (its sessions ran concurrently with the others,
		// so shares — not per-row wall clocks — are the meaningful split).
		stats := srv.CoreStats()
		var total, totalNs uint64
		for _, cs := range stats {
			total += cs.Events
			totalNs += cs.VerifyNs
		}
		for _, cs := range stats {
			share, coreNs := 0.0, 0.0
			if total > 0 {
				share = float64(cs.Events) / float64(total)
			}
			if cs.Events > 0 {
				coreNs = float64(cs.VerifyNs) / float64(cs.Events)
			}
			fmt.Fprintf(stdout, "-- row %d: %d sessions, %d events (%.0f events/sec share, %.1f kernel ns/event), %d alarms\n",
				cs.Core, cs.SessionsTotal, cs.Events, share*res.EventsSec, coreNs, cs.Alarms)
		}
		if total > 0 && totalNs > 0 {
			fmt.Fprintf(stdout, "-- kernel: %.1f ns/event verify cost (daemon side, all cores)\n",
				float64(totalNs)/float64(total))
		}
	}

	// The incident report caps at the top 5: a load run's point is the
	// fold ratio and the head of the ranking, not the whole document
	// (ipdstop -incidents renders that).
	const incidentTop = 5
	if *incidents && srv != nil {
		di := srv.DebugIncidents()
		if !di.Enabled {
			fmt.Fprintln(stdout, "-- incidents: stage disabled on the in-process daemon")
		} else {
			fmt.Fprintf(stdout, "-- incidents: %d alarm(s) folded into %d incident(s) (%.1f%% reduction)\n",
				di.Alarms, di.Incidents, di.Reduction*100)
			for i, in := range di.List {
				if i == incidentTop {
					fmt.Fprintf(stdout, "   … %d more\n", len(di.List)-incidentTop)
					break
				}
				fmt.Fprintf(stdout, "   #%d score=%.1f %s@%#x alarms=%d sessions=%d bursts=%d\n",
					in.ID, in.Score, in.Func, in.PC, in.Alarms, in.Sessions, in.Bursts)
				for _, ev := range in.Evidence {
					fmt.Fprintf(stdout, "      %s\n", ev)
				}
			}
		}
	} else if *incidents {
		// Remote daemon: the registry and debug endpoint live over there;
		// report the ranked wire copy it streamed during the final drain.
		if len(res.Incidents) == 0 {
			fmt.Fprintln(stdout, "-- incidents: none received at drain (stage disabled, or no alarms)")
		}
		for i, in := range res.Incidents {
			if i == incidentTop {
				fmt.Fprintf(stdout, "   … %d more\n", len(res.Incidents)-incidentTop)
				break
			}
			fmt.Fprintf(stdout, "-- incident #%d score=%.1f %s@%#x alarms=%d sessions=%d bursts=%d\n",
				in.ID, float64(in.ScoreMilli)/1000, in.Func, in.PC, in.Alarms, in.Sessions, in.Bursts)
			if in.Evidence != "" {
				fmt.Fprintf(stdout, "      %s\n", in.Evidence)
			}
		}
	}

	if len(res.Errors) > 0 {
		return 1
	}
	return 0
}

// closeFrames ends an event stream at depth 0: it appends a leave for
// every frame the stream enters and never leaves, and reports how many
// it added. Depth is counted as the kernel counts it — a leave at
// depth 0 pops nothing — so a stream with stray leaves is not
// over-closed.
func closeFrames(evs []wire.Event) ([]wire.Event, int) {
	depth := 0
	for _, e := range evs {
		switch e.Kind {
		case wire.EvEnter:
			depth++
		case wire.EvLeave:
			if depth > 0 {
				depth--
			}
		}
	}
	for i := 0; i < depth; i++ {
		evs = append(evs, wire.Event{Kind: wire.EvLeave})
	}
	return evs, depth
}

// traceCmd is `ipdsload trace`: fetch a daemon's /debug/trace document
// — Chrome trace-event JSON (chrome://tracing, Perfetto), or the raw
// span records with -spans — and write it to stdout or -out.
func traceCmd(argv []string) int {
	fs := flag.NewFlagSet("ipdsload trace", flag.ExitOnError)
	var (
		url     = fs.String("url", "http://127.0.0.1:6060", "daemon telemetry base URL (or a full /debug/trace URL)")
		spans   = fs.Bool("spans", false, "fetch the raw span records instead of Chrome trace-event JSON")
		out     = fs.String("out", "", "write the document to this file instead of stdout")
		timeout = fs.Duration("timeout", 5*time.Second, "fetch timeout")
	)
	fs.Parse(argv)

	u := *url
	if !strings.Contains(u, "://") {
		u = "http://" + u
	}
	if !strings.Contains(u, "/debug/trace") {
		u = strings.TrimRight(u, "/") + "/debug/trace"
	}
	if *spans {
		u += "?spans=1"
	}
	c := &http.Client{Timeout: *timeout}
	resp, err := c.Get(u)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ipdsload trace:", err)
		return 1
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fmt.Fprintf(os.Stderr, "ipdsload trace: %s: %s\n", u, resp.Status)
		return 1
	}
	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ipdsload trace:", err)
			return 1
		}
		defer f.Close()
		w = f
	}
	n, err := io.Copy(w, resp.Body)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ipdsload trace:", err)
		return 1
	}
	if *out != "" {
		fmt.Printf("ipdsload trace: wrote %d bytes to %s — open in chrome://tracing or Perfetto\n", n, *out)
	}
	return 0
}
