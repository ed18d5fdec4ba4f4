package server

import (
	"encoding/json"
	"net/http"
	"sort"
	"time"
)

// Live-session introspection: the JSON document behind the daemon's
// /debug/sessions endpoint and the ipdstop CLI. Everything here reads
// session telemetry the verifiers maintain as atomics (plus one short
// mutex hold for the forensic snapshot), so the endpoint never touches
// an ipds.Machine — those stay owned by their pinned per-core verifier.

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
	Core      int         `json:"core"` // verifier core the session is pinned to
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
	for _, v := range s.verifiers {
		info.Events += v.events.Load()
		info.Alarms += v.alarms.Load()
		verifyNs += v.verifyNs.Load()
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
