// Command ipdstop is a top-style live view of an ipdsd daemon: it polls
// the daemon's /debug/sessions telemetry endpoint and renders the live
// session table — per-session event/batch/alarm counts, uptime, the
// windowed alarm rate, idle time, and each session's most recent
// forensic alarm context (violating function and branch, recent-window
// size, activation stack).
//
// With -incidents it polls /debug/incidents instead and renders the
// incident pipeline's ranked fold of the alarm stream: score, site,
// alarm/fold counts, burst and lead-lag evidence, and the forensic
// context attached to each incident.
//
// With -fleet it polls several daemons' telemetry endpoints and
// renders one merged session table with a NODE column — the operator's
// view of a routed cluster, where a drained node's sessions visibly
// migrate to its peers. An unreachable node shows as such; the rest of
// the fleet still renders. Each node's line carries its kernel
// ns/event and traced-batch e2e p50/p99, and a cluster-totals line
// rolls the fleet up.
//
// With -history it polls /debug/timeline instead and renders each
// metric series as a terminal sparkline — the daemon's in-process
// metric history (internal/obs/tsdb), no external TSDB required.
//
// With -once it prints a single snapshot and exits (scriptable, and
// what the tests drive); otherwise it redraws every -interval using an
// ANSI home+clear, like top.
//
// Usage:
//
//	ipdstop [-addr http://127.0.0.1:6060] [-interval 2s] [-once]
//	        [-incidents] [-history] [-fleet url1,url2,...]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs/tsdb"
	"repro/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", "http://127.0.0.1:6060", "ipdsd telemetry base URL (its -telemetry address)")
		interval  = flag.Duration("interval", 2*time.Second, "refresh interval")
		once      = flag.Bool("once", false, "print one snapshot and exit")
		incidents = flag.Bool("incidents", false, "show the ranked incident view instead of the session table")
		history   = flag.Bool("history", false, "show /debug/timeline metric history as sparklines")
		fleetURLs = flag.String("fleet", "", "comma-separated telemetry base URLs: one merged session table across fleet nodes")
	)
	flag.Parse()

	base := strings.TrimRight(*addr, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	var fleetBases []string
	for _, u := range strings.Split(*fleetURLs, ",") {
		if u = strings.TrimRight(strings.TrimSpace(u), "/"); u != "" {
			if !strings.Contains(u, "://") {
				u = "http://" + u
			}
			fleetBases = append(fleetBases, u)
		}
	}

	client := &http.Client{Timeout: 10 * time.Second}
	for {
		var out string
		if len(fleetBases) > 0 {
			out = renderFleet(fetchFleet(client, fleetBases))
		} else if *history {
			tl, err := fetchTimeline(client, base+"/debug/timeline")
			if err != nil {
				fmt.Fprintln(os.Stderr, "ipdstop:", err)
				os.Exit(1)
			}
			out = renderHistory(tl)
		} else if *incidents {
			doc, err := fetchIncidents(client, base+"/debug/incidents")
			if err != nil {
				fmt.Fprintln(os.Stderr, "ipdstop:", err)
				os.Exit(1)
			}
			out = renderIncidents(doc)
		} else {
			info, err := fetch(client, base+"/debug/sessions")
			if err != nil {
				fmt.Fprintln(os.Stderr, "ipdstop:", err)
				os.Exit(1)
			}
			out = render(info)
		}
		if !*once {
			fmt.Print("\x1b[H\x1b[2J") // home + clear, top-style
		}
		os.Stdout.WriteString(out)
		if *once {
			return
		}
		time.Sleep(*interval)
	}
}

// fetch retrieves and decodes one /debug/sessions document.
func fetch(c *http.Client, url string) (server.DebugInfo, error) {
	var info server.DebugInfo
	resp, err := c.Get(url)
	if err != nil {
		return info, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return info, fmt.Errorf("%s: %s", url, resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return info, err
	}
	if err := json.Unmarshal(body, &info); err != nil {
		return info, fmt.Errorf("%s: %w", url, err)
	}
	return info, nil
}

// render formats one snapshot as the session table. Pure — the tests
// drive it with synthetic documents.
func render(info server.DebugInfo) string {
	var b strings.Builder
	state := "serving"
	if info.Draining {
		state = "DRAINING"
	}
	fmt.Fprintf(&b, "ipdsd %s — %d session(s) — %s\n\n",
		state, len(info.Sessions), time.Unix(0, info.NowUnixNs).Format(time.TimeOnly))
	if len(info.Sessions) == 0 {
		b.WriteString("(no live sessions)\n")
		return b.String()
	}
	sessions := append([]server.DebugSession(nil), info.Sessions...)
	// Busiest first, like top; stable on id so equal rows don't flap.
	sort.SliceStable(sessions, func(i, j int) bool {
		if sessions[i].Events != sessions[j].Events {
			return sessions[i].Events > sessions[j].Events
		}
		return sessions[i].ID < sessions[j].ID
	})
	fmt.Fprintf(&b, "%6s  %-16s %5s %10s %8s %7s %8s %9s %8s %8s %6s  %s\n",
		"ID", "PROGRAM", "CORE", "EVENTS", "BATCHES", "ALARMS", "ALRM/S", "RECORDED", "KRNL/EV", "UPTIME", "IDLE", "LAST ALARM")
	for _, s := range sessions {
		last := "-"
		if a := s.LastAlarm; a != nil {
			last = fmt.Sprintf("seq=%d %s@%#x taken=%v expected=%s window=%d stack=%s",
				a.Seq, a.Func, a.PC, a.Taken, a.Expected, a.Window, strings.Join(a.Stack, ">"))
		}
		kernel := "-"
		if s.KernelNs > 0 {
			kernel = fmt.Sprintf("%.0fns", s.KernelNs)
		}
		fmt.Fprintf(&b, "%6d  %-16s %5d %10d %8d %7d %8.1f %9d %8s %7.1fs %5dms  %s\n",
			s.ID, s.Program, s.Core, s.Events, s.Batches, s.Alarms, s.AlarmRate,
			s.Recorded, kernel, s.UptimeS, s.IdleMs, last)
	}
	return b.String()
}

// fleetNode is one fleet member's polled state: its telemetry base
// URL, the sessions document if reachable, and the fetch error if not.
type fleetNode struct {
	Base string
	Info server.DebugInfo
	Err  error
}

// fetchFleet polls every node's /debug/sessions; a node that fails to
// answer is reported in its row rather than failing the whole view.
func fetchFleet(c *http.Client, bases []string) []fleetNode {
	nodes := make([]fleetNode, len(bases))
	for i, b := range bases {
		nodes[i].Base = b
		nodes[i].Info, nodes[i].Err = fetch(c, b+"/debug/sessions")
	}
	return nodes
}

// renderFleet formats the merged cluster view: a per-node status line,
// then every live session across the fleet in one busiest-first table
// with a NODE column. Pure — the tests drive it with synthetic
// documents.
func renderFleet(nodes []fleetNode) string {
	var b strings.Builder
	type row struct {
		node int
		s    server.DebugSession
	}
	var rows []row
	// Cluster totals, rolled up from per-node /debug/sessions documents
	// the way the router's /debug/fleet rolls them up.
	fleetRows := make([]fleet.FleetNode, len(nodes))
	fmt.Fprintf(&b, "ipds fleet — %d node(s)\n", len(nodes))
	for i, n := range nodes {
		stats := func(info server.DebugInfo) string {
			e2e := "e2e -/-"
			if info.TraceN > 0 {
				e2e = fmt.Sprintf("e2e %s/%s",
					time.Duration(info.E2EP50Ns), time.Duration(info.E2EP99Ns))
			}
			return fmt.Sprintf("%d session(s), %.0fns/ev, %s", len(info.Sessions), info.KernelNs, e2e)
		}
		switch {
		case n.Err != nil:
			fmt.Fprintf(&b, "  node%-2d %-28s UNREACHABLE (%v)\n", i, n.Base, n.Err)
		case n.Info.Draining:
			fmt.Fprintf(&b, "  node%-2d %-28s DRAINING — %s\n", i, n.Base, stats(n.Info))
		default:
			fmt.Fprintf(&b, "  node%-2d %-28s serving — %s\n", i, n.Base, stats(n.Info))
		}
		if n.Err != nil {
			fleetRows[i].Err = n.Err.Error()
			continue
		}
		fleetRows[i] = fleet.FleetNode{
			Draining: n.Info.Draining, Sessions: len(n.Info.Sessions),
			Events: n.Info.Events, Alarms: n.Info.Alarms, KernelNs: n.Info.KernelNs,
			TraceN: n.Info.TraceN, E2EP50Ns: n.Info.E2EP50Ns, E2EP99Ns: n.Info.E2EP99Ns,
		}
		for _, s := range n.Info.Sessions {
			rows = append(rows, row{i, s})
		}
	}
	t := fleet.Rollup(fleetRows)
	e2e := "e2e -/-"
	if t.TraceN > 0 {
		e2e = fmt.Sprintf("e2e %s/%s", time.Duration(t.E2EP50Ns), time.Duration(t.E2EP99Ns))
	}
	fmt.Fprintf(&b, "  totals: %d session(s), %d event(s), %d alarm(s), %.0fns/ev, %s\n",
		t.Sessions, t.Events, t.Alarms, t.KernelNs, e2e)
	b.WriteString("\n")
	if t.Sessions == 0 {
		b.WriteString("(no live sessions)\n")
		return b.String()
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].s.Events != rows[j].s.Events {
			return rows[i].s.Events > rows[j].s.Events
		}
		if rows[i].node != rows[j].node {
			return rows[i].node < rows[j].node
		}
		return rows[i].s.ID < rows[j].s.ID
	})
	fmt.Fprintf(&b, "%6s %6s  %-16s %5s %10s %8s %7s %8s %8s %8s %6s\n",
		"NODE", "ID", "PROGRAM", "CORE", "EVENTS", "BATCHES", "ALARMS", "ALRM/S", "KRNL/EV", "UPTIME", "IDLE")
	for _, r := range rows {
		s := r.s
		kernel := "-"
		if s.KernelNs > 0 {
			kernel = fmt.Sprintf("%.0fns", s.KernelNs)
		}
		fmt.Fprintf(&b, "%6s %6d  %-16s %5d %10d %8d %7d %8.1f %8s %7.1fs %5dms\n",
			fmt.Sprintf("node%d", r.node), s.ID, s.Program, s.Core, s.Events, s.Batches,
			s.Alarms, s.AlarmRate, kernel, s.UptimeS, s.IdleMs)
	}
	return b.String()
}

// fetchTimeline retrieves and decodes one /debug/timeline document.
func fetchTimeline(c *http.Client, url string) (tsdb.Timeline, error) {
	var tl tsdb.Timeline
	resp, err := c.Get(url)
	if err != nil {
		return tl, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return tl, fmt.Errorf("%s: %s", url, resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return tl, err
	}
	if err := json.Unmarshal(body, &tl); err != nil {
		return tl, fmt.Errorf("%s: %w", url, err)
	}
	return tl, nil
}

// sparkTicks are the eight sparkline glyphs, lowest to highest.
var sparkTicks = []rune("▁▂▃▄▅▆▇█")

// sparkline renders points as a fixed-width terminal sparkline, scaled
// to the series' own min..max (a flat series renders all-low).
func sparkline(points []int64, width int) string {
	if len(points) > width {
		points = points[len(points)-width:]
	}
	lo, hi := points[0], points[0]
	for _, p := range points {
		if p < lo {
			lo = p
		}
		if p > hi {
			hi = p
		}
	}
	var b strings.Builder
	for _, p := range points {
		i := 0
		if hi > lo {
			i = int(int64(len(sparkTicks)-1) * (p - lo) / (hi - lo))
		}
		b.WriteRune(sparkTicks[i])
	}
	return b.String()
}

// historyWidth is how many trailing samples a sparkline shows.
const historyWidth = 60

// renderHistory formats one metric-history snapshot: one sparkline row
// per series with its window min/last/max. Pure — the tests drive it
// with synthetic timelines.
func renderHistory(tl tsdb.Timeline) string {
	var b strings.Builder
	fmt.Fprintf(&b, "ipdsd history — %d sample(s) every %v — %s\n\n",
		len(tl.TimesNs), time.Duration(tl.IntervalNs), time.Unix(0, tl.NowUnixNs).Format(time.TimeOnly))
	if len(tl.Series) == 0 || len(tl.TimesNs) == 0 {
		b.WriteString("(no history yet)\n")
		return b.String()
	}
	fmt.Fprintf(&b, "%-40s %12s %12s %12s  %s\n", "SERIES", "MIN", "LAST", "MAX", "HISTORY")
	for _, s := range tl.Series {
		lo, hi := s.Points[0], s.Points[0]
		for _, p := range s.Points {
			if p < lo {
				lo = p
			}
			if p > hi {
				hi = p
			}
		}
		// Counter series show per-interval increments; suffix the name so
		// the unit is readable at a glance.
		name := s.Name
		if s.Kind == tsdb.KindCounter {
			name += " (Δ)"
		}
		fmt.Fprintf(&b, "%-40s %12d %12d %12d  %s\n",
			name, lo, s.Points[len(s.Points)-1], hi, sparkline(s.Points, historyWidth))
	}
	return b.String()
}

// fetchIncidents retrieves and decodes one /debug/incidents document.
func fetchIncidents(c *http.Client, url string) (server.DebugIncidents, error) {
	var doc server.DebugIncidents
	resp, err := c.Get(url)
	if err != nil {
		return doc, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return doc, fmt.Errorf("%s: %s", url, resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return doc, fmt.Errorf("%s: %w", url, err)
	}
	return doc, nil
}

// renderIncidents formats one incident-pipeline snapshot: the fold
// header, then the ranked list with each incident's evidence lines and
// forensic context. Pure — the tests drive it with synthetic documents.
func renderIncidents(doc server.DebugIncidents) string {
	var b strings.Builder
	if !doc.Enabled {
		b.WriteString("ipdsd incident stage disabled (-incidents=false on the daemon)\n")
		return b.String()
	}
	fmt.Fprintf(&b, "ipdsd incidents — %d alarm(s) folded into %d incident(s) (%.1f%% reduction, %d deduped) — %s\n\n",
		doc.Alarms, doc.Incidents, doc.Reduction*100, doc.Folded,
		time.Unix(0, doc.NowUnixNs).Format(time.TimeOnly))
	if len(doc.List) == 0 {
		b.WriteString("(no incidents)\n")
		return b.String()
	}
	fmt.Fprintf(&b, "%4s %8s  %-24s %8s %8s %5s %6s %5s %5s  %s\n",
		"ID", "SCORE", "SITE", "ALARMS", "FOLDED", "SESS", "BURSTS", "LEADS", "ROOT", "SEQ RANGE")
	for _, in := range doc.List {
		root := "-"
		if in.Root {
			root = "root"
		}
		fmt.Fprintf(&b, "%4d %8.1f  %-24s %8d %8d %5d %6d %5d %5s  [%d, %d]\n",
			in.ID, in.Score, fmt.Sprintf("%s@%#x", in.Func, in.PC),
			in.Alarms, in.Folded, in.Sessions, in.Bursts, in.Leads, root,
			in.FirstSeq, in.LastSeq)
		for _, ev := range in.Evidence {
			fmt.Fprintf(&b, "      · %s\n", ev)
		}
		if c := in.Context; c != nil {
			fmt.Fprintf(&b, "      · context: alarm seq=%d window=%d stack=%s\n",
				c.Seq, c.Window, strings.Join(c.Stack, ">"))
		}
	}
	return b.String()
}
