package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/incident"
	"repro/internal/ipds"
	"repro/internal/obs"
	"repro/internal/wire"
)

// The incident stage: a bounded queue and one consumer goroutine
// between the verifier pool and an incident.Analyzer. The serve path
// only ever performs a non-blocking channel send of a small value (and,
// for the rare forensic capture, a pooled deep copy), so the OnBatch
// loop keeps its zero-allocation, never-blocks-on-analytics contract;
// when the analytics fall behind the queue, alarms are dropped from
// analysis — counted, never silently — while verification and alarm
// delivery continue untouched.

// DefaultIncidentQueue bounds the analytics feed queue (alarms plus
// forensic contexts) between the verifier pool and the analyzer.
const DefaultIncidentQueue = 8192

// incMsg is one queue entry: an alarm observation, a forensic context
// (ctx != nil), or a drain barrier (done != nil).
type incMsg struct {
	ev   incident.AlarmEvent
	ctx  *ipds.AlarmContext
	done chan struct{}
}

// incidentStage owns the analyzer and its feed queue.
type incidentStage struct {
	an *incident.Analyzer
	ch chan incMsg

	// ctxFree recycles the deep copies that carry forensic captures
	// across the queue (the machine-owned originals are only valid
	// until the machine's next batch). It is a free list rather than a
	// sync.Pool because a GC empties a Pool, after which every verifier
	// would allocate its copies afresh; copies in flight never outnumber
	// the queue, so a free list that size keeps every copy ever made.
	ctxFree chan *ipds.AlarmContext

	wg sync.WaitGroup

	mu     sync.Mutex
	closed bool

	dropped *obs.Counter // incident_queue_dropped_total
	depth   *obs.Gauge   // incident_queue_depth (sampled on offer)
}

// newIncidentStage starts the consumer goroutine.
func newIncidentStage(cfg incident.Config, queue int, reg *obs.Registry) *incidentStage {
	if queue <= 0 {
		queue = DefaultIncidentQueue
	}
	cfg.Reg = reg
	st := &incidentStage{
		an:      incident.NewAnalyzer(cfg),
		ch:      make(chan incMsg, queue),
		ctxFree: make(chan *ipds.AlarmContext, queue),
		dropped: reg.Counter("incident_queue_dropped_total"),
		depth:   reg.Gauge("incident_queue_depth"),
	}
	st.wg.Add(1)
	go st.run()
	return st
}

// run is the single consumer: it preserves queue FIFO order, which is
// what makes a drain barrier mean "everything offered before me has
// been analyzed".
func (st *incidentStage) run() {
	defer st.wg.Done()
	for m := range st.ch {
		switch {
		case m.done != nil:
			close(m.done)
		case m.ctx != nil:
			st.an.ObserveContext(m.ctx)
			st.freeCtx(m.ctx)
		default:
			st.an.Observe(m.ev)
		}
	}
}

// offer feeds one alarm, non-blocking: a full queue drops the
// observation (counted) rather than stalling a verifier.
func (st *incidentStage) offer(ev incident.AlarmEvent) {
	select {
	case st.ch <- incMsg{ev: ev}:
		st.depth.Set(int64(len(st.ch)))
	default:
		st.dropped.Inc()
	}
}

// offerCtx feeds one forensic capture, non-blocking. The capture is
// deep-copied into a recycled context first; c stays caller-owned.
func (st *incidentStage) offerCtx(c *ipds.AlarmContext) {
	var cc *ipds.AlarmContext
	select {
	case cc = <-st.ctxFree:
	default:
		cc = &ipds.AlarmContext{}
	}
	c.CopyInto(cc)
	select {
	case st.ch <- incMsg{ctx: cc}:
	default:
		st.freeCtx(cc)
		st.dropped.Inc()
	}
}

// freeCtx returns a context copy to the free list.
func (st *incidentStage) freeCtx(cc *ipds.AlarmContext) {
	select {
	case st.ctxFree <- cc:
	default:
	}
}

// sync blocks until every observation offered before the call has been
// consumed by the analyzer. It is a no-op after close.
func (st *incidentStage) sync() {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return
	}
	done := make(chan struct{})
	st.ch <- incMsg{done: done} // blocking: run() always drains
	st.mu.Unlock()
	<-done
}

// close stops the consumer after draining the queue. Callable once all
// producers have stopped (the server sequences this after its worker
// and writer pools exit).
func (st *incidentStage) close() {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return
	}
	st.closed = true
	close(st.ch)
	st.mu.Unlock()
	st.wg.Wait()
}

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

// Incidents drains the analytics queue and returns the ranked incident
// list (nil when the stage is disabled).
func (s *Server) Incidents() []incident.Incident {
	if s.incidents == nil {
		return nil
	}
	s.incidents.sync()
	return s.incidents.an.Incidents()
}

// DebugIncidents is the full /debug/incidents document.
type DebugIncidents struct {
	NowUnixNs int64               `json:"now_unix_ns"`
	Enabled   bool                `json:"enabled"`
	Alarms    uint64              `json:"alarms"`    // alarms analyzed
	Folded    uint64              `json:"folded"`    // alarms folded by dedup
	Dropped   uint64              `json:"dropped"`   // observations lost to queue overflow
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
	st := s.incidents.an.Stats()
	out.Alarms = st.Alarms
	out.Folded = st.Folded
	out.Dropped = s.incidents.dropped.Value()
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
