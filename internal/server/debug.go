package server

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync/atomic"
	"time"
)

// Live-session introspection: the JSON document behind the daemon's
// /debug/sessions endpoint and the ipdstop CLI, and the per-row
// CoreStats breakdown. Everything here reads telemetry the sessions
// publish as atomics (plus one short mutex hold for the forensic
// snapshot), so the endpoint never touches an ipds.Machine — each
// stays owned by its session's goroutine.

// DebugAlarm summarises a session's most recent alarm and its captured
// forensic context.
type DebugAlarm struct {
	Seq      uint64   `json:"seq"`
	PC       uint64   `json:"pc"`
	Func     string   `json:"func"`
	Expected string   `json:"expected"`
	Taken    bool     `json:"taken"`
	Window   int      `json:"window"`          // events in the captured context
	Stack    []string `json:"stack,omitempty"` // outermost first; "" = unprotected frame
}

// DebugSession is one live session's telemetry snapshot.
type DebugSession struct {
	ID        uint64      `json:"id"`
	Program   string      `json:"program"`
	Core      int         `json:"core"` // CoreStats row the session's counters sum into
	AgeMs     int64       `json:"age_ms"`
	UptimeS   float64     `json:"uptime_s"`
	IdleMs    int64       `json:"idle_ms"`
	Events    uint64      `json:"events"`
	Batches   uint64      `json:"batches"`
	Alarms    uint64      `json:"alarms"`
	AlarmRate float64     `json:"alarm_rate_per_s"`    // last ≥1s window, else lifetime average
	Recorded  uint64      `json:"recorded"`            // flight-recorder lifetime events
	KernelNs  float64     `json:"kernel_ns_per_event"` // verify wall time / verified events
	LastAlarm *DebugAlarm `json:"last_alarm,omitempty"`
}

// DebugInfo is the full /debug/sessions document. The node-level
// totals exist for the fleet aggregation (PR 10): /debug/fleet and
// `ipdstop -fleet` merge them across nodes without re-deriving
// anything from the per-session list.
type DebugInfo struct {
	NowUnixNs int64          `json:"now_unix_ns"`
	Draining  bool           `json:"draining"`
	Events    uint64         `json:"events_total"`        // lifetime verified events, all cores
	Alarms    uint64         `json:"alarms_total"`        // lifetime alarms, all cores
	KernelNs  float64        `json:"kernel_ns_per_event"` // lifetime verify wall time / events
	TraceN    int            `json:"trace_spans"`         // span records currently retained
	E2EP50Ns  int64          `json:"e2e_p50_ns"`          // traced-batch end-to-end latency
	E2EP99Ns  int64          `json:"e2e_p99_ns"`
	Sessions  []DebugSession `json:"sessions"`
}

// Debug snapshots every live session, ordered by session id.
func (s *Server) Debug() DebugInfo {
	now := time.Now()
	s.mu.Lock()
	live := make([]*session, 0, len(s.sessions))
	for _, ss := range s.sessions {
		live = append(live, ss)
	}
	s.mu.Unlock()
	sort.Slice(live, func(i, j int) bool { return live[i].id < live[j].id })

	info := DebugInfo{
		NowUnixNs: now.UnixNano(),
		Draining:  s.draining.Load(),
		Sessions:  make([]DebugSession, 0, len(live)),
	}
	var verifyNs uint64
	for _, r := range s.rows {
		info.Events += r.events.Load()
		info.Alarms += r.alarms.Load()
		verifyNs += r.verifyNs.Load()
	}
	if info.Events > 0 {
		info.KernelNs = float64(verifyNs) / float64(info.Events)
	}
	if spans := s.TraceSpans(); len(spans) > 0 {
		info.TraceN = len(spans)
		info.E2EP50Ns, info.E2EP99Ns = e2eQuantiles(spans)
	}
	for _, ss := range live {
		d := DebugSession{
			ID:        ss.id,
			Program:   ss.program,
			Core:      ss.core,
			AgeMs:     now.Sub(ss.started).Milliseconds(),
			UptimeS:   now.Sub(ss.started).Seconds(),
			Batches:   ss.batchesN.Load(),
			Alarms:    ss.alarmsN.Load(),
			AlarmRate: ss.alarmRate(now),
			Recorded:  ss.recTotal.Load(),
		}
		last := ss.started.UnixNano()
		if t := ss.lastBatch.Load(); t != 0 {
			last = t
		}
		d.IdleMs = (now.UnixNano() - last) / int64(time.Millisecond)
		d.Events = ss.events.Load()
		if ev := d.Events; ev > 0 {
			d.KernelNs = float64(ss.verifyNs.Load()) / float64(ev)
		}
		ss.ctxMu.Lock()
		if ss.hasCtx {
			c := &ss.lastCtx
			da := &DebugAlarm{
				Seq:      c.Alarm.Seq,
				PC:       c.Alarm.PC,
				Func:     c.Alarm.Func,
				Expected: c.Alarm.Expected.String(),
				Taken:    c.Alarm.Taken,
				Window:   len(c.Recent),
				Stack:    make([]string, len(c.Stack)),
			}
			for i := range c.Stack {
				da.Stack[i] = c.Stack[i].Func
			}
			d.LastAlarm = da
		}
		ss.ctxMu.Unlock()
		info.Sessions = append(info.Sessions, d)
	}
	return info
}

// DebugHandler serves Debug() as JSON — mounted by ipdsd at
// /debug/sessions on the telemetry endpoint, polled by ipdstop.
func (s *Server) DebugHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.Debug())
	})
}

// coreRow is one CoreStats row: the lifetime counters of every session
// whose id falls on it, published once per pass, and the row's
// committed span ring (nil when tracing is disabled).
type coreRow struct {
	sessions, events, batches, alarms, verifyNs atomic.Uint64
	spans                                       *spanRing
}

// CoreStats is one row of the serve work's breakdown, behind
// BENCH_pr6.json and `ipdsload -selfserve`. A server has one row per P
// (GOMAXPROCS at New), and each session's counters are summed into row
// id mod rows; the session goroutines themselves run wherever Go's
// scheduler puts them. Events/Batches/Alarms are lifetime totals of the
// row's sessions and VerifyNs their cumulative wall time in the verify
// kernel. Parks, Wakes, WriterParks, ParkedNs, WriterParkedNs, Stalls
// and RingHighWater read 0: no serve-path goroutine parks on a ring.
type CoreStats struct {
	Core           int    `json:"core"`
	Sessions       int    `json:"sessions"`       // live now
	SessionsTotal  uint64 `json:"sessions_total"` // ever summed here
	Events         uint64 `json:"events"`
	Batches        uint64 `json:"batches"`
	Alarms         uint64 `json:"alarms"`
	VerifyNs       uint64 `json:"verify_ns"` // cumulative wall time in verify
	Parks          uint64 `json:"parks"`
	Wakes          uint64 `json:"wakes"`
	WriterParks    uint64 `json:"writer_parks"`
	ParkedNs       uint64 `json:"parked_ns"`
	WriterParkedNs uint64 `json:"writer_parked_ns"`
	Stalls         uint64 `json:"stalls"`
	RingHighWater  int    `json:"ring_high_water"`
}

// CoreStats snapshots every row. Safe from any goroutine; the numbers
// are racy snapshots of live counters.
func (s *Server) CoreStats() []CoreStats {
	live := make([]int, len(s.rows))
	s.mu.Lock()
	for _, ss := range s.sessions {
		live[ss.core]++
	}
	s.mu.Unlock()
	out := make([]CoreStats, len(s.rows))
	for i, r := range s.rows {
		out[i] = CoreStats{
			Core:          i,
			Sessions:      live[i],
			SessionsTotal: r.sessions.Load(),
			Events:        r.events.Load(),
			Batches:       r.batches.Load(),
			Alarms:        r.alarms.Load(),
			VerifyNs:      r.verifyNs.Load(),
		}
	}
	return out
}
