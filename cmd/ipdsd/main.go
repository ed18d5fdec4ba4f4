// Command ipdsd is the IPDS verification daemon: it compiles one or
// more programs to branch-correlation table images, registers each
// image under its content hash, and serves verifier sessions over TCP
// using the internal/wire protocol. Remote clients (cmd/ipdsload,
// internal/ipdsclient) open a session by hash, stream batched branch
// events, and receive infeasible-path alarms back.
//
// Images are compiled through the parallel cached pipeline; with
// -cachedir the marshalled images also land in the on-disk blob cache,
// so a restarted daemon resolves reconnecting clients' hashes without
// recompiling anything.
//
// With -telemetry the daemon serves /metrics (server_sessions_active,
// server_events_total, server_batches_total, server_alarms_total,
// incident_* …), /debug/vars, /debug/pprof, /debug/sessions — a JSON
// document of every live session's telemetry and most recent forensic
// alarm context — and /debug/incidents — the incident pipeline's
// ranked, explained fold of the alarm stream. Both debug documents are
// polled by cmd/ipdstop for live top-style views. /debug/trace serves
// client-stamped batches expanded into per-stage span records as
// Chrome trace-event JSON, and /debug/timeline serves the in-process
// metric history (-history samples at 1/s) `ipdstop -history` renders
// as sparklines.
//
// In a fleet, -registry serves this node's image blobs to peers over
// the content-addressed registry protocol, and -fetch names peer
// registries to pull unknown hashes from: a node handed a Hello for an
// image it never compiled fetches the blob, verifies it against its
// hash, and serves the session — zero recompiles on handoff.
//
// Usage:
//
//	ipdsd [-addr :7077] [-workload name]... [-all] [-cachedir dir]
//	      [-telemetry :6060] [-idle 60s]
//	      [-incidents=false] [-registry :7078] [-fetch host:7078,...]
//	      [file.mc]...
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/obs/tsdb"
	"repro/internal/pipeline"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/tcache"
	"repro/internal/workload"
)

type nameFlags []string

func (l *nameFlags) String() string { return fmt.Sprint(*l) }
func (l *nameFlags) Set(s string) error {
	*l = append(*l, s)
	return nil
}

func main() {
	var (
		wlNames   nameFlags
		addr      = flag.String("addr", "127.0.0.1:7077", "listen address for verifier sessions")
		all       = flag.Bool("all", false, "serve every built-in workload")
		cacheDir  = flag.String("cachedir", "", "on-disk table/image cache (survives restarts)")
		cacheN    = flag.Int("cachesize", 1024, "in-memory cache entries")
		telemetry = flag.String("telemetry", "", "serve /metrics, /debug/vars and /debug/pprof on this address")
		idle      = flag.Duration("idle", 60*time.Second, "evict sessions idle longer than this")
		incidents = flag.Bool("incidents", true, "fold alarm floods into ranked incidents (off-path analytics stage)")
		drain     = flag.Duration("drain", 10*time.Second, "graceful shutdown budget on SIGINT/SIGTERM")
		regAddr   = flag.String("registry", "", "serve this node's image blobs to fleet peers on this address")
		fetch     = flag.String("fetch", "", "comma-separated peer registry addresses to pull unknown image hashes from")
		history   = flag.Int("history", 240, "metric-history samples retained for /debug/timeline (1/s; 0 disables)")
		traceRing = flag.Int("tracering", 0, "per-row span records retained for /debug/trace (0 = default 256, <0 disables)")
	)
	flag.Var(&wlNames, "workload", "serve a built-in server workload (repeatable)")
	flag.Parse()

	reg := obs.NewRegistry()
	tr := obs.NewTracer(reg)

	cache, err := tcache.New(*cacheN, *cacheDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ipdsd: cache:", err)
		os.Exit(1)
	}

	// Gather (name, source) pairs: built-in workloads and/or files.
	type prog struct{ name, src string }
	var progs []prog
	if *all {
		for _, w := range workload.All() {
			progs = append(progs, prog{w.Name, w.Source})
		}
	}
	for _, n := range wlNames {
		w := workload.ByName(n)
		if w == nil {
			fmt.Fprintf(os.Stderr, "ipdsd: unknown workload %q (have %v)\n", n, workload.Names())
			os.Exit(1)
		}
		progs = append(progs, prog{w.Name, w.Source})
	}
	for _, path := range flag.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ipdsd:", err)
			os.Exit(1)
		}
		progs = append(progs, prog{filepath.Base(path), string(data)})
	}
	// A cold fleet node may start with nothing compiled locally and
	// resolve every image over the registry.
	if len(progs) == 0 && *fetch == "" {
		fmt.Fprintln(os.Stderr, "ipdsd: nothing to serve; use -workload, -all, file arguments, or -fetch")
		os.Exit(1)
	}

	store := server.NewImageStore(cache)
	if *fetch != "" {
		store.SetFetcher(registry.NewFetcher(strings.Split(*fetch, ","), 5*time.Second, reg))
	}
	if *regAddr != "" {
		regSrv := registry.NewServer(store, reg)
		bound, err := regSrv.ListenAndServe(*regAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ipdsd: registry:", err)
			os.Exit(1)
		}
		defer regSrv.Close()
		fmt.Printf("ipdsd: registry on %s\n", bound)
	}
	for _, p := range progs {
		art, err := pipeline.CompileWith(p.src, ir.DefaultOptions,
			pipeline.Config{Cache: cache}, tr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ipdsd: compile %s: %v\n", p.name, err)
			os.Exit(1)
		}
		h := store.Add(p.name, art.Image)
		fmt.Printf("ipdsd: serving %-10s image %x (%d funcs)\n", p.name, h[:8], len(art.Image.Funcs))
	}

	srv := server.New(store, server.Config{
		ReadTimeout:      *idle,
		DisableIncidents: !*incidents,
		TraceRing:        *traceRing,
		Reg:              reg,
		Tracer:           tr,
	})

	// The telemetry endpoint mounts the live-session document next to
	// the standard obs surface, so it starts after the verification
	// server exists. Compile-phase spans recorded above are already in
	// the registry; nothing is lost by the later bind.
	if *telemetry != "" {
		reg.PublishExpvar("ipdsd")
		mux := obs.NewMux(reg)
		mux.Handle("/debug/sessions", srv.DebugHandler())
		mux.Handle("/debug/incidents", srv.IncidentsHandler())
		mux.Handle("/debug/trace", srv.TraceHandler())
		// Metric history behind /debug/timeline: one snapshot per second
		// into a fixed ring (~4 minutes), rendered by `ipdstop -history`
		// and merged fleet-wide by the router's /debug/fleet.
		db := tsdb.New(reg, *history, time.Second)
		db.Start()
		defer db.Stop()
		mux.Handle("/debug/timeline", db.Handler())
		tsrv, taddr, err := obs.ServeHandler(*telemetry, mux)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ipdsd: telemetry:", err)
			os.Exit(1)
		}
		defer tsrv.Close()
		fmt.Fprintf(os.Stderr, "ipdsd: telemetry on http://%s/metrics, sessions on /debug/sessions, incidents on /debug/incidents, trace on /debug/trace, timeline on /debug/timeline\n", taddr)
	}

	// Graceful drain on SIGINT/SIGTERM: queued batches verify, queued
	// alarms deliver, every session ends with Ack+Bye.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe(*addr) }()

	// ListenAndServe binds asynchronously; report the address once up.
	for i := 0; i < 100; i++ {
		if a := srv.Addr(); a != "" {
			fmt.Printf("ipdsd: listening on %s\n", a)
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	select {
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "ipdsd: %v: draining (budget %v)\n", sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "ipdsd: shutdown:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "ipdsd: drained")
	case err := <-errCh:
		if err != nil {
			fmt.Fprintln(os.Stderr, "ipdsd:", err)
			os.Exit(1)
		}
	}
}
