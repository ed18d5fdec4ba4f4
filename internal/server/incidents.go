package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"time"

	"repro/internal/incident"
	"repro/internal/wire"
)

// The incident stage: each session feeds the server's incident.Analyzer
// itself, under the analyzer's own lock, on the session's goroutine.
// A session never hands the analyzer one alarm at a time: it folds a
// pass's alarms into one incident.Record per (signal, bucket) and
// feeds them as one run — one lock per run — so an alarm flood costs
// the analyzer one update per record, not per alarm, and the serve
// path keeps its zero-allocation contract. Nothing stands between
// detection and analysis, so nothing is dropped on the way.

// foldCap is the record capacity of a session's folder. A session
// feeds its records when the folder fills, before any forensic
// context (the analyzer discards a context whose signal it has not yet
// seen), and at the end of every pass, so a pass that folds more
// records than this feeds them 256 at a time (docs/PERFORMANCE.md,
// "Slab size, measured", has the pass sizes of the measured floods).
const foldCap = 256

// incidentFrame converts one ranked incident to its wire form: score
// in fixed-point milli-units, evidence lines joined with "; " and
// clamped to the wire string limit.
func incidentFrame(in *incident.Incident) wire.Incident {
	fn := in.Func
	if len(fn) > wire.MaxString {
		fn = fn[:wire.MaxString]
	}
	ev := strings.Join(in.Evidence, "; ")
	if len(ev) > wire.MaxString {
		ev = ev[:wire.MaxString]
	}
	return wire.Incident{
		ID:         uint32(in.ID),
		ScoreMilli: uint64(in.Score*1000 + 0.5),
		Alarms:     in.Alarms,
		Folded:     in.Folded,
		Sessions:   uint32(in.Sessions),
		Bursts:     uint32(in.Bursts),
		PC:         in.PC,
		FirstSeq:   in.FirstSeq,
		LastSeq:    in.LastSeq,
		Func:       fn,
		Evidence:   ev,
	}
}

// maxIncidentFrames bounds the ranked incidents a draining session is
// sent: the point of the stage is that the interesting list is short.
const maxIncidentFrames = 16

// Incidents returns the ranked incident list (nil when the stage is
// disabled). Every record a session fed before the call is in it.
func (s *Server) Incidents() []incident.Incident {
	if s.incidents == nil {
		return nil
	}
	return s.incidents.Incidents()
}

// DebugIncidents is the full /debug/incidents document.
type DebugIncidents struct {
	NowUnixNs int64               `json:"now_unix_ns"`
	Enabled   bool                `json:"enabled"`
	Alarms    uint64              `json:"alarms"`    // alarms analyzed
	Folded    uint64              `json:"folded"`    // alarms folded by dedup
	Dropped   uint64              `json:"dropped"`   // always 0: sessions feed the analyzer directly; kept for perfbench's ledger
	Incidents int                 `json:"incidents"` // ranked list length
	Reduction float64             `json:"reduction"` // 1 - incidents/alarms
	List      []incident.Incident `json:"list"`
}

// DebugIncidents snapshots the incident pipeline: stats plus the
// current ranked list.
func (s *Server) DebugIncidents() DebugIncidents {
	out := DebugIncidents{NowUnixNs: time.Now().UnixNano()}
	if s.incidents == nil {
		return out
	}
	out.Enabled = true
	out.List = s.Incidents()
	st := s.incidents.Stats()
	out.Alarms = st.Alarms
	out.Folded = st.Folded
	out.Incidents = len(out.List)
	if st.Alarms > 0 {
		out.Reduction = 1 - float64(len(out.List))/float64(st.Alarms)
	}
	return out
}

// IncidentsHandler serves DebugIncidents() as JSON — mounted by ipdsd
// at /debug/incidents next to /debug/sessions.
func (s *Server) IncidentsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.DebugIncidents())
	})
}
