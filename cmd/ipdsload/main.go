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
// command for benchmarks and CI smoke runs. -json appends a machine
// readable result row (used to produce the BENCH_pr*.json baselines);
// under -selfserve the row also carries the daemon-side batch-verify
// latency quantiles and the forensic context count, read from the
// in-process telemetry registry.
//
// With -selfserve -router the in-process engine is a fleet: -nodes
// daemon instances behind an in-process ipdsrouter, every session
// dialing the router — the routed counterpart of the direct -selfserve
// row, so the bench table can price the router's splice overhead.
//
// Usage:
//
//	ipdsload [-addr host:7077 | -selfserve] [-workload telnetd]
//	         [-sessions n] [-events n] [-batch n] [-tamper stride]
//	         [-repeat n] [-verifiers n] [-router] [-nodes n]
//	         [-events-file in.events] [-trace-sample n]
//	         [-json out.json] [-incidents] [-cpuprofile cpu.pprof]
//	         [-memprofile mem.pprof] [file.mc]
//	ipdsload trace [-url http://host:6060] [-spans] [-out file]
//
// -repeat runs the load n times against the same server and reports
// (and records) the fastest run — best-of-n is the noise-robust
// estimator for recorded baselines on shared hosts. The daemon-side
// verify quantiles in the JSON row are cumulative over all repeats.
//
// -verifiers (with -selfserve) pins the in-process daemon's per-core
// verifier count — 1 gives the single-core control row the scale gate
// compares against; 0 (the default) uses GOMAXPROCS. Self-served JSON
// rows carry the per-core breakdown (events, parks, stalls, ring
// high-water per verifier core) under "cores".
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
// the client's send path. Self-served runs then report (and
// record in the -json row as e2e_p50_ns/e2e_p99_ns) the end-to-end
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
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/fleet"
	"repro/internal/ipdsclient"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/internal/workload"
)

// row is one load run in the -json output.
type row struct {
	Program   string  `json:"program"`
	Forensics bool    `json:"forensics"`
	Sessions  int     `json:"sessions"`
	Events    uint64  `json:"events"`
	Alarms    uint64  `json:"alarms"`
	AlarmCtxs uint64  `json:"alarm_ctxs"`
	ElapsedNs int64   `json:"elapsed_ns"`
	EventsSec float64 `json:"events_per_sec"`
	AckP50Ns  int64   `json:"ack_p50_ns"`
	AckP95Ns  int64   `json:"ack_p95_ns"`
	AckP99Ns  int64   `json:"ack_p99_ns"`
	AlarmP50  int64   `json:"alarm_p50_ns"`
	AlarmP95  int64   `json:"alarm_p95_ns"`
	AlarmP99  int64   `json:"alarm_p99_ns"`

	// Daemon-side batch-verify latency quantiles, read from the
	// in-process registry — populated only with -selfserve (a remote
	// daemon keeps its registry; scrape /metrics there instead).
	VerifyP50Ns  uint64 `json:"verify_p50_ns"`
	VerifyP99Ns  uint64 `json:"verify_p99_ns"`
	VerifyP999Ns uint64 `json:"verify_p999_ns"`

	// KernelNsPerEvent is the daemon-side verify cost per event:
	// cumulative verifyBatch wall time over verified events, summed
	// across cores (CoreStats.VerifyNs / CoreStats.Events). Populated
	// only with -selfserve. Unlike events_per_sec, which folds in
	// client-side capture and wire overhead, this isolates the
	// verification kernel the BENCH_pr8 baselines gate.
	KernelNsPerEvent float64 `json:"kernel_ns_per_event,omitempty"`

	// Per-core serve breakdown — populated only with -selfserve.
	// Verifiers is the daemon's per-core loop count; Cores has one row
	// per verifier core, counters cumulative over all repeats.
	Verifiers int       `json:"verifiers,omitempty"`
	Cores     []coreRow `json:"cores,omitempty"`

	// Fleet shape — populated only with -selfserve -router: the load
	// went through an in-process ipdsrouter in front of Nodes daemons.
	Routed bool `json:"routed,omitempty"`
	Nodes  int  `json:"nodes,omitempty"`

	// Traced-batch end-to-end latency (client origin stamp → ack
	// flush), computed from the daemon-side span rings. Populated only
	// with -selfserve -trace-sample N; TraceSpans is the sample count
	// behind the quantiles.
	TraceSpans int   `json:"trace_spans,omitempty"`
	E2EP50Ns   int64 `json:"e2e_p50_ns,omitempty"`
	E2EP99Ns   int64 `json:"e2e_p99_ns,omitempty"`
}

// coreRow is one verifier core's slice of a self-served load run.
type coreRow struct {
	Core          int     `json:"core"`
	Sessions      uint64  `json:"sessions"`
	Events        uint64  `json:"events"`
	Batches       uint64  `json:"batches"`
	Alarms        uint64  `json:"alarms"`
	EventsSec     float64 `json:"events_per_sec"` // this core's share of the aggregate rate
	KernelNs      float64 `json:"kernel_ns_per_event,omitempty"`
	RingHighWater int     `json:"ring_high_water"`
	Parks         uint64  `json:"parks"`
	Wakes         uint64  `json:"wakes"`
	Stalls        uint64  `json:"stalls"`
	// ParkedNs and WriterParkedNs: time the core's verifier and writer
	// spent blocked in a park, summed over the run.
	ParkedNs       uint64 `json:"parked_ns"`
	WriterParkedNs uint64 `json:"writer_parked_ns"`
}

func main() {
	// The trace subcommand is its own tiny tool: fetch a daemon's span
	// rings, no load run involved.
	if len(os.Args) > 1 && os.Args[1] == "trace" {
		os.Exit(traceCmd(os.Args[2:]))
	}
	var (
		addr      = flag.String("addr", "127.0.0.1:7077", "ipdsd address")
		selfserve = flag.Bool("selfserve", false, "serve in-process instead of dialing a remote daemon")
		forensics = flag.Bool("forensics", true, "with -selfserve: enable the flight recorder + AlarmCtx delivery (the daemon default)")
		wlName    = flag.String("workload", "telnetd", "built-in workload to replay")
		sessions  = flag.Int("sessions", 8, "concurrent client sessions")
		events    = flag.Int("events", 100000, "minimum events per session (trace loops to fill)")
		batch     = flag.Int("batch", 512, "events per wire frame")
		tamper    = flag.Int("tamper", 0, "flip every stride-th branch (0 = benign replay)")
		repeat    = flag.Int("repeat", 1, "run the load n times and report/record the best run (suppresses host noise in baselines)")
		verifiers = flag.Int("verifiers", 0, "with -selfserve: per-core verifier loops (0 = GOMAXPROCS; 1 = single-core control)")
		routed    = flag.Bool("router", false, "with -selfserve: place sessions through an in-process fleet router")
		nodesN    = flag.Int("nodes", 3, "with -selfserve -router: fleet nodes behind the router")
		evFile    = flag.String("events-file", "", "replay this canonical-text event file (from ipdsrun -eventfile) instead of capturing")
		traceN    = flag.Int("trace-sample", 0, "stamp every Nth batch with a wire trace id + origin timestamp (0 = off)")
		jsonOut   = flag.String("json", "", "append a JSON result row to this file's row set")
		incidents = flag.Bool("incidents", false, "report the daemon's ranked incident fold of the alarm flood after the run")
		timeout   = flag.Duration("timeout", 60*time.Second, "per-session network timeout")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the load run to this file")
		memProf   = flag.String("memprofile", "", "write an allocation profile (after the run) to this file")
	)
	flag.Parse()

	var src, name string
	var input []string
	if flag.NArg() == 1 {
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "ipdsload:", err)
			os.Exit(1)
		}
		src, name = string(data), filepath.Base(flag.Arg(0))
	} else {
		w := workload.ByName(*wlName)
		if w == nil {
			fmt.Fprintf(os.Stderr, "ipdsload: unknown workload %q (have %v)\n", *wlName, workload.Names())
			os.Exit(1)
		}
		src, name, input = w.Source, w.Name, w.AttackSession
	}

	art, err := pipeline.CompileWith(src, ir.DefaultOptions, pipeline.Config{}, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ipdsload: compile:", err)
		os.Exit(1)
	}
	hash := art.Image.Hash()

	var trace []wire.Event
	if *evFile != "" {
		f, err := os.Open(*evFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ipdsload:", err)
			os.Exit(1)
		}
		trace, err = wire.ReadEventsText(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "ipdsload: %s: %v\n", *evFile, err)
			os.Exit(1)
		}
	} else {
		trace = ipdsclient.Capture(art, input)
	}
	if *tamper > 0 {
		trace = ipdsclient.Tamper(trace, *tamper)
	}
	if len(trace) == 0 {
		fmt.Fprintln(os.Stderr, "ipdsload: captured an empty trace")
		os.Exit(1)
	}

	target := *addr
	var reg *obs.Registry
	var srv *server.Server
	var engines []*server.Server // every in-process daemon (1, or -nodes when routed)
	if *selfserve {
		reg = obs.NewRegistry()
		scfg := server.Config{Reg: reg, Verifiers: *verifiers}
		if !*forensics {
			scfg.RecorderDepth = -1
		}
		shutdown := func(s *server.Server) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			s.Shutdown(ctx)
		}
		if *routed {
			// A fleet: -nodes daemons behind an in-process router, every
			// node sharing the registry so verify quantiles and counters
			// aggregate cluster-wide. Per-core rows are skipped — they
			// describe one daemon, not a fleet.
			n := *nodesN
			if n < 1 {
				n = 1
			}
			addrs := make([]string, n)
			for i := 0; i < n; i++ {
				store := server.NewImageStore(nil)
				store.Add(name, art.Image)
				node := server.New(store, scfg)
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					fmt.Fprintln(os.Stderr, "ipdsload:", err)
					os.Exit(1)
				}
				go node.Serve(ln)
				defer shutdown(node)
				engines = append(engines, node)
				addrs[i] = ln.Addr().String()
			}
			rt := fleet.NewRouter(fleet.NewRing(addrs), fleet.RouterConfig{Reg: reg})
			bound, err := rt.ListenAndServe("127.0.0.1:0")
			if err != nil {
				fmt.Fprintln(os.Stderr, "ipdsload:", err)
				os.Exit(1)
			}
			defer rt.Close()
			target = bound
			fmt.Printf("-- fleet: %d nodes behind router %s\n", n, bound)
		} else {
			store := server.NewImageStore(nil)
			store.Add(name, art.Image)
			srv = server.New(store, scfg)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				fmt.Fprintln(os.Stderr, "ipdsload:", err)
				os.Exit(1)
			}
			go srv.Serve(ln)
			defer shutdown(srv)
			engines = append(engines, srv)
			target = ln.Addr().String()
		}
	}

	// Profiling brackets only the load run itself: compilation and trace
	// capture above stay out of the profile so the hot-path picture is
	// the serve loop, not the frontend.
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ipdsload:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "ipdsload: cpuprofile:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	// With -repeat the load runs several times against the same server
	// and the fastest run is the one reported and recorded: aggregate
	// throughput on a shared host is noisy, and the best of n is the
	// stable estimator of what the serve path can actually sustain.
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
			fmt.Fprintln(os.Stderr, "ipdsload:", err)
		}
		if *repeat > 1 {
			fmt.Printf("-- run %d/%d: %.0f events/sec\n", i+1, *repeat, r.EventsSec)
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
			fmt.Fprintln(os.Stderr, "ipdsload:", err)
			os.Exit(1)
		}
		// Flush pending allocation records so the profile reflects the
		// whole run, then write the allocs view (total allocation sites,
		// the right lens for a zero-allocation hot path).
		runtime.GC()
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			fmt.Fprintln(os.Stderr, "ipdsload: memprofile:", err)
			os.Exit(1)
		}
		f.Close()
	}

	fmt.Printf("-- %s: %d sessions, %d events (%d alarms, %d contexts) in %v\n",
		name, res.Sessions, res.Events, res.Alarms, res.AlarmCtxs, res.Elapsed.Round(time.Millisecond))
	fmt.Printf("-- throughput: %.0f events/sec aggregate\n", res.EventsSec)
	fmt.Printf("-- ack latency:   p50=%v p95=%v p99=%v\n", res.AckP50, res.AckP95, res.AckP99)
	if res.Alarms > 0 {
		fmt.Printf("-- alarm latency: p50=%v p95=%v p99=%v\n", res.AlarmP50, res.AlarmP95, res.AlarmP99)
	}
	var verify obs.HistSnapshot
	var cores []coreRow
	var kernelNs float64
	spanN, e2eP50, e2eP99 := traceE2E(engines)
	if spanN > 0 {
		fmt.Printf("-- e2e latency:   p50=%v p99=%v (%d traced batches, origin→ack)\n",
			time.Duration(e2eP50), time.Duration(e2eP99), spanN)
	}
	if reg != nil {
		verify = reg.Histogram("server_verify_ns").Snapshot()
		fmt.Printf("-- batch verify:  p50=%v p99=%v p99.9=%v (%d batches)\n",
			time.Duration(verify.Quantile(0.50)), time.Duration(verify.Quantile(0.99)),
			time.Duration(verify.Quantile(0.999)), verify.Count)
	}
	if srv != nil {
		// Per-core breakdown: counters are cumulative over all repeats;
		// each core's events/sec is its event share of the recorded
		// aggregate rate (the cores ran concurrently, so shares — not
		// per-core wall clocks — are the meaningful split).
		stats := srv.CoreStats()
		var total, totalNs uint64
		for _, cs := range stats {
			total += cs.Events
			totalNs += cs.VerifyNs
		}
		if total > 0 {
			kernelNs = float64(totalNs) / float64(total)
		}
		for _, cs := range stats {
			share, coreNs := 0.0, 0.0
			if total > 0 {
				share = float64(cs.Events) / float64(total)
			}
			if cs.Events > 0 {
				coreNs = float64(cs.VerifyNs) / float64(cs.Events)
			}
			cores = append(cores, coreRow{
				Core:           cs.Core,
				Sessions:       cs.SessionsTotal,
				Events:         cs.Events,
				Batches:        cs.Batches,
				Alarms:         cs.Alarms,
				EventsSec:      share * res.EventsSec,
				KernelNs:       coreNs,
				RingHighWater:  cs.RingHighWater,
				Parks:          cs.Parks,
				Wakes:          cs.Wakes,
				Stalls:         cs.Stalls,
				ParkedNs:       cs.ParkedNs,
				WriterParkedNs: cs.WriterParkedNs,
			})
			fmt.Printf("-- core %d: %d sessions, %d events (%.0f events/sec share, %.1f kernel ns/event), %d alarms, ring hw=%d, parks=%d (%.1f ms parked), writer parked %.1f ms, stalls=%d\n",
				cs.Core, cs.SessionsTotal, cs.Events, share*res.EventsSec, coreNs, cs.Alarms,
				cs.RingHighWater, cs.Parks, float64(cs.ParkedNs)/1e6, float64(cs.WriterParkedNs)/1e6, cs.Stalls)
		}
		if kernelNs > 0 {
			fmt.Printf("-- kernel: %.1f ns/event verify cost (daemon side, all cores)\n", kernelNs)
		}
	}

	// The incident report caps at the top 5: a load run's point is the
	// fold ratio and the head of the ranking, not the whole document
	// (ipdstop -incidents renders that).
	const incidentTop = 5
	if *incidents && srv != nil {
		di := srv.DebugIncidents()
		if !di.Enabled {
			fmt.Println("-- incidents: stage disabled on the in-process daemon")
		} else {
			fmt.Printf("-- incidents: %d alarm(s) folded into %d incident(s) (%.1f%% reduction, %d dropped)\n",
				di.Alarms, di.Incidents, di.Reduction*100, di.Dropped)
			for i, in := range di.List {
				if i == incidentTop {
					fmt.Printf("   … %d more\n", len(di.List)-incidentTop)
					break
				}
				fmt.Printf("   #%d score=%.1f %s@%#x alarms=%d sessions=%d bursts=%d\n",
					in.ID, in.Score, in.Func, in.PC, in.Alarms, in.Sessions, in.Bursts)
				for _, ev := range in.Evidence {
					fmt.Printf("      %s\n", ev)
				}
			}
		}
	} else if *incidents {
		// Remote daemon: the registry and debug endpoint live over there;
		// report the ranked wire copy it streamed during the final drain.
		if len(res.Incidents) == 0 {
			fmt.Println("-- incidents: none received at drain (stage disabled, or no alarms)")
		}
		for i, in := range res.Incidents {
			if i == incidentTop {
				fmt.Printf("   … %d more\n", len(res.Incidents)-incidentTop)
				break
			}
			fmt.Printf("-- incident #%d score=%.1f %s@%#x alarms=%d sessions=%d bursts=%d\n",
				in.ID, float64(in.ScoreMilli)/1000, in.Func, in.PC, in.Alarms, in.Sessions, in.Bursts)
			if in.Evidence != "" {
				fmt.Printf("      %s\n", in.Evidence)
			}
		}
	}

	if *jsonOut != "" {
		if err := appendRow(*jsonOut, row{
			Program:      name,
			Forensics:    !*selfserve || *forensics,
			Sessions:     res.Sessions,
			Events:       res.Events,
			Alarms:       res.Alarms,
			AlarmCtxs:    res.AlarmCtxs,
			ElapsedNs:    res.Elapsed.Nanoseconds(),
			EventsSec:    res.EventsSec,
			AckP50Ns:     res.AckP50.Nanoseconds(),
			AckP95Ns:     res.AckP95.Nanoseconds(),
			AckP99Ns:     res.AckP99.Nanoseconds(),
			AlarmP50:     res.AlarmP50.Nanoseconds(),
			AlarmP95:     res.AlarmP95.Nanoseconds(),
			AlarmP99:     res.AlarmP99.Nanoseconds(),
			VerifyP50Ns:  verify.Quantile(0.50),
			VerifyP99Ns:  verify.Quantile(0.99),
			VerifyP999Ns: verify.Quantile(0.999),

			KernelNsPerEvent: kernelNs,

			Verifiers: verifierCount(srv),
			Cores:     cores,
			Routed:    *selfserve && *routed,
			Nodes:     fleetNodes(*selfserve && *routed, *nodesN),

			TraceSpans: spanN,
			E2EP50Ns:   e2eP50,
			E2EP99Ns:   e2eP99,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "ipdsload:", err)
			os.Exit(1)
		}
	}
	if len(res.Errors) > 0 {
		os.Exit(1)
	}
}

// traceE2E merges the span rings of every in-process engine — the one
// direct daemon, or all fleet nodes of a routed run — and reports the
// count plus the p50/p99 end-to-end batch latency. Zeros when nothing
// was traced (no -trace-sample, or a remote daemon holding the rings).
func traceE2E(engines []*server.Server) (n int, p50, p99 int64) {
	var lat []int64
	for _, s := range engines {
		for _, r := range s.TraceSpans() {
			lat = append(lat, r.E2ENs())
		}
	}
	if len(lat) == 0 {
		return 0, 0, 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	q := func(f float64) int64 { return lat[int(f*float64(len(lat)-1))] }
	return len(lat), q(0.50), q(0.99)
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

// verifierCount resolves the recorded verifier count: the in-process
// daemon's actual core count, or 0 for remote runs (unknown here).
func verifierCount(srv *server.Server) int {
	if srv == nil {
		return 0
	}
	return len(srv.CoreStats())
}

// fleetNodes resolves the recorded fleet width: n for routed
// self-served runs, 0 (omitted from the JSON) otherwise.
func fleetNodes(routed bool, n int) int {
	if !routed {
		return 0
	}
	if n < 1 {
		return 1
	}
	return n
}

// appendRow merges one result row into path's {"rows": [...]} document,
// creating it if absent — repeated runs build one bench file.
func appendRow(path string, r row) error {
	doc := struct {
		Rows []row `json:"rows"`
	}{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &doc); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	doc.Rows = append(doc.Rows, r)
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
