package fleet

import (
	"context"
	"encoding/json"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs/tsdb"
)

// Fleet-wide observability aggregation (PR 10): the router — the one
// process that already knows every node — scrapes each node's
// /debug/sessions totals and /debug/timeline history and serves the
// merged cluster view at /debug/fleet. Per-node series are merged
// label-safely: every series name gains a node tag
// (`x_total{node="host:port"}`), inserted inside existing label
// braces when the name carries some, so two nodes' series can never
// collide and existing labels survive.

// nodeDoc is the slice of a daemon's /debug/sessions document the
// aggregator consumes. Declared locally: fleet cannot import
// internal/server (the server imports fleet for its placement hash),
// and the JSON contract is the stable surface anyway.
type nodeDoc struct {
	Draining bool    `json:"draining"`
	Events   uint64  `json:"events_total"`
	Alarms   uint64  `json:"alarms_total"`
	KernelNs float64 `json:"kernel_ns_per_event"`
	TraceN   int     `json:"trace_spans"`
	E2EP50Ns int64   `json:"e2e_p50_ns"`
	E2EP99Ns int64   `json:"e2e_p99_ns"`
	Sessions []struct {
		ID uint64 `json:"id"`
	} `json:"sessions"`
}

// FleetNode is one node's row in the merged view.
type FleetNode struct {
	Node     string  `json:"node"`          // the node's telemetry base URL
	Err      string  `json:"err,omitempty"` // scrape failure; zero-valued row
	Draining bool    `json:"draining"`
	Sessions int     `json:"sessions"`
	Events   uint64  `json:"events_total"`
	Alarms   uint64  `json:"alarms_total"`
	KernelNs float64 `json:"kernel_ns_per_event"`
	TraceN   int     `json:"trace_spans"`
	E2EP50Ns int64   `json:"e2e_p50_ns"`
	E2EP99Ns int64   `json:"e2e_p99_ns"`
}

// FleetTotals is the cluster roll-up (see Rollup). KernelNs is the
// event-weighted mean across nodes (each node's figure weighted by its
// event count). E2EP50Ns is the trace-weighted mean of per-node
// medians, TraceN the weight; E2EP99Ns is the worst node's p99 — the
// conservative cluster tail.
type FleetTotals struct {
	Nodes    int     `json:"nodes"`
	Healthy  int     `json:"healthy"`
	Draining int     `json:"draining"`
	Sessions int     `json:"sessions"`
	Events   uint64  `json:"events_total"`
	Alarms   uint64  `json:"alarms_total"`
	KernelNs float64 `json:"kernel_ns_per_event"`
	TraceN   int     `json:"trace_spans"`
	E2EP50Ns int64   `json:"e2e_p50_ns"`
	E2EP99Ns int64   `json:"e2e_p99_ns"`
}

// FleetSeries is one node-tagged timeline series in the merged view.
// Each series carries its own timestamps: nodes sample independently,
// and pretending their clocks align would be a lie the consumer can't
// detect.
type FleetSeries struct {
	Node    string  `json:"node"`
	Name    string  `json:"name"` // node-tagged (see nodeTag)
	Kind    string  `json:"kind"`
	TimesNs []int64 `json:"times_ns"`
	Points  []int64 `json:"points"`
}

// FleetView is the full /debug/fleet document.
type FleetView struct {
	NowUnixNs int64         `json:"now_unix_ns"`
	Totals    FleetTotals   `json:"totals"`
	Nodes     []FleetNode   `json:"nodes"`
	Series    []FleetSeries `json:"series"`
}

// nodeTag merges a node label into a series name without disturbing
// labels already present: `x` -> `x{node="n"}`, `x{a="b"}` ->
// `x{a="b",node="n"}`, and a histogram-derived `x{a="b"}/p50` keeps
// its suffix outside the braces.
func nodeTag(name, node string) string {
	if i := strings.LastIndexByte(name, '}'); i >= 0 && strings.IndexByte(name, '{') >= 0 {
		return name[:i] + `,node="` + node + `"` + name[i:]
	}
	// No existing labels; tag before any derived-series suffix so the
	// base metric name stays a valid label-bearing identifier.
	if j := strings.LastIndexByte(name, '/'); j >= 0 {
		return name[:j] + `{node="` + node + `"}` + name[j:]
	}
	return name + `{node="` + node + `"}`
}

// Aggregator scrapes a fixed node set and merges the answers. Nodes
// are telemetry base URLs (scheme optional; a /debug/sessions suffix
// from a shared -probe flag value is stripped).
type Aggregator struct {
	nodes  []string
	client *http.Client
}

// NewAggregator builds an aggregator over the given node telemetry
// URLs. timeout bounds each per-node request (default 1s).
func NewAggregator(urls []string, timeout time.Duration) *Aggregator {
	if timeout <= 0 {
		timeout = time.Second
	}
	nodes := make([]string, 0, len(urls))
	for _, u := range urls {
		if u == "" {
			continue
		}
		if !strings.Contains(u, "://") {
			u = "http://" + u
		}
		u = strings.TrimSuffix(strings.TrimSuffix(u, "/debug/sessions"), "/")
		nodes = append(nodes, u)
	}
	return &Aggregator{nodes: nodes, client: &http.Client{Timeout: timeout}}
}

// get decodes one JSON endpoint into out.
func (a *Aggregator) get(ctx context.Context, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := a.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return &url2Err{url: url, status: resp.Status}
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// url2Err is a non-200 scrape response, reported per node row.
type url2Err struct {
	url    string
	status string
}

// Error renders the failed URL with the HTTP status it returned.
func (e *url2Err) Error() string { return e.url + ": " + e.status }

// label strips the scheme off a node URL: the node tag users read in
// merged series and ipdstop columns.
func label(node string) string {
	if i := strings.Index(node, "://"); i >= 0 {
		return node[i+3:]
	}
	return node
}

// Scrape polls every node once, concurrently, and merges.
func (a *Aggregator) Scrape(ctx context.Context) FleetView {
	view := FleetView{
		NowUnixNs: time.Now().UnixNano(),
		Nodes:     make([]FleetNode, len(a.nodes)),
	}
	var (
		wg sync.WaitGroup
		mu sync.Mutex // guards view.Series appends
	)
	for i, node := range a.nodes {
		wg.Add(1)
		go func(i int, node string) {
			defer wg.Done()
			row := FleetNode{Node: label(node)}
			var doc nodeDoc
			if err := a.get(ctx, node+"/debug/sessions", &doc); err != nil {
				row.Err = err.Error()
				view.Nodes[i] = row
				return
			}
			row.Draining = doc.Draining
			row.Sessions = len(doc.Sessions)
			row.Events = doc.Events
			row.Alarms = doc.Alarms
			row.KernelNs = doc.KernelNs
			row.TraceN = doc.TraceN
			row.E2EP50Ns = doc.E2EP50Ns
			row.E2EP99Ns = doc.E2EP99Ns
			view.Nodes[i] = row

			// The timeline is optional: a node running without -telemetry
			// history still contributes its totals row.
			var tl tsdb.Timeline
			if err := a.get(ctx, node+"/debug/timeline", &tl); err != nil {
				return
			}
			merged := make([]FleetSeries, 0, len(tl.Series))
			for _, s := range tl.Series {
				merged = append(merged, FleetSeries{
					Node:    row.Node,
					Name:    nodeTag(s.Name, row.Node),
					Kind:    s.Kind,
					TimesNs: tl.TimesNs,
					Points:  s.Points,
				})
			}
			mu.Lock()
			view.Series = append(view.Series, merged...)
			mu.Unlock()
		}(i, node)
	}
	wg.Wait()
	sort.Slice(view.Series, func(i, j int) bool { return view.Series[i].Name < view.Series[j].Name })
	view.Totals = Rollup(view.Nodes)
	return view
}

// Rollup folds the node rows that answered (Err empty) into the
// cluster totals; Scrape and `ipdstop -fleet` both report it.
func Rollup(nodes []FleetNode) FleetTotals {
	t := FleetTotals{Nodes: len(nodes)}
	var kernelW float64
	var p50W int64
	for _, n := range nodes {
		if n.Err != "" {
			continue
		}
		t.Healthy++
		if n.Draining {
			t.Draining++
		}
		t.Sessions += n.Sessions
		t.Events += n.Events
		t.Alarms += n.Alarms
		kernelW += n.KernelNs * float64(n.Events)
		p50W += n.E2EP50Ns * int64(n.TraceN)
		t.TraceN += n.TraceN
		if n.E2EP99Ns > t.E2EP99Ns {
			t.E2EP99Ns = n.E2EP99Ns
		}
	}
	if t.Events > 0 {
		t.KernelNs = kernelW / float64(t.Events)
	}
	if t.TraceN > 0 {
		t.E2EP50Ns = p50W / int64(t.TraceN)
	}
	return t
}

// Handler serves Scrape() as JSON — mounted by ipdsrouter at
// /debug/fleet. (`ipdstop -fleet` polls each node's /debug/sessions
// itself and rolls the rows up with Rollup.)
func (a *Aggregator) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(a.Scrape(req.Context()))
	})
}
