package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/incident"
	"repro/internal/ipds"
	"repro/internal/obs"
	"repro/internal/wire"
)

// The incident stage: a bounded queue and one consumer goroutine
// between the verifier pool and an incident.Analyzer. A verifier never
// hands the stage one alarm at a time: it collects a pass's alarms in
// its own slab and offers them as one run — one lock, one copy into
// the stage's alarm ring and one non-blocking channel send — so an
// alarm flood costs the serve path one queue operation and the
// analyzer one lock per pass, not per alarm. The serve loop keeps its
// zero-allocation, never-blocks-on-analytics contract (the ring is
// allocated once, context copies are recycled through a free list);
// when the analytics fall behind the queue, alarms are dropped from
// analysis — counted, never silently — while verification and alarm
// delivery continue untouched.

// DefaultIncidentQueue bounds the analytics feed queue between the
// verifier pool and the analyzer: the alarms queued (the alarm ring's
// length), and the queue's slots (one per run of alarms or forensic
// context).
const DefaultIncidentQueue = 8192

// slabCap is the alarm capacity of a verifier's slab. A verifier
// offers its slab when it fills, before any forensic context (the
// analyzer discards a context whose signal it has not yet seen), and
// at the end of every pass. An offer copies only the alarms it holds,
// so the size sets just how many runs a flood pass is cut into: 256
// holds every pass of the measured floods whole — at most 158 alarms
// on perfbench's tamper workload and 224 (32 batches of ~7) on the
// 64-session tampered telnetd load (docs/PERFORMANCE.md, "Slab size,
// measured").
const slabCap = 256

// alarmSlab holds a verifier's pass's alarms, in stream order, until
// the verifier offers them to the stage as one run.
type alarmSlab struct {
	n   int
	evs [slabCap]incident.AlarmEvent
}

// incMsg is one queue entry: a run of n alarms at ring[off:] (wrapping
// past the ring's end), a forensic context, or a drain barrier
// (done != nil).
type incMsg struct {
	off, n int
	ctx    *ipds.AlarmContext
	done   chan struct{}
}

// incidentStage owns the analyzer and its feed queue.
type incidentStage struct {
	an *incident.Analyzer
	ch chan incMsg

	// ring holds the queued alarms. An offer copies its run in at tail
	// and sends the run's message in the same ringMu section, so the
	// consumer meets runs in ring order; it releases each run's slots
	// by subtracting its length from queued once the analyzer is done
	// with them. Producers fill at most len(ring)-queued slots, so the
	// queue holds up to IncidentQueue alarms however short the runs.
	ringMu sync.Mutex
	ring   []incident.AlarmEvent
	tail   int // next slot to fill; ringMu
	queued atomic.Int64

	// ctxFree recycles the deep copies that carry forensic captures
	// across the queue (the machine-owned originals are only valid
	// until the machine's next batch). It is a free list rather than a
	// sync.Pool because a GC empties a Pool, after which every verifier
	// would allocate afresh; copies in flight never outnumber the
	// queue's slots, so it keeps every copy ever made.
	ctxFree chan *ipds.AlarmContext

	wg sync.WaitGroup

	mu     sync.Mutex
	closed bool

	dropped *obs.Counter // incident_queue_dropped_total (alarms and contexts)
	depth   *obs.Gauge   // incident_queue_depth (alarms, sampled per run)
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
		ring:    make([]incident.AlarmEvent, queue),
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
			end := m.off + m.n
			if wrap := end - len(st.ring); wrap > 0 {
				st.an.ObserveBatch(st.ring[m.off:])
				st.an.ObserveBatch(st.ring[:wrap])
			} else {
				st.an.ObserveBatch(st.ring[m.off:end])
			}
			st.queued.Add(-int64(m.n))
		}
	}
}

// offer queues a run of alarms, non-blocking, and returns how many it
// accepted: the run's head, as much of it as the ring has room for, or
// none when the queue has no free slot. The rest are dropped from
// analysis (counted) rather than stalling a verifier. evs stays
// caller-owned.
func (st *incidentStage) offer(evs []incident.AlarmEvent) int {
	st.ringMu.Lock()
	k := min(len(evs), len(st.ring)-int(st.queued.Load()))
	if k > 0 {
		// The slots from tail on are free: filling them before the send
		// is harmless should it fail.
		off := st.tail
		if c := copy(st.ring[off:], evs[:k]); c < k {
			copy(st.ring, evs[c:k])
		}
		q := st.queued.Add(int64(k))
		select {
		case st.ch <- incMsg{off: off, n: k}:
			if st.tail = off + k; st.tail >= len(st.ring) {
				st.tail -= len(st.ring)
			}
			st.depth.Set(q)
		default: // every slot is taken by contexts and runs
			st.queued.Add(-int64(k))
			k = 0
		}
	}
	st.ringMu.Unlock()
	if d := len(evs) - k; d > 0 {
		st.dropped.Add(uint64(d))
	}
	return k
}

// offerCtx feeds one forensic capture, non-blocking, and reports
// whether it was queued. The capture is deep-copied into a recycled
// context first; c stays caller-owned.
func (st *incidentStage) offerCtx(c *ipds.AlarmContext) bool {
	var cc *ipds.AlarmContext
	select {
	case cc = <-st.ctxFree:
	default:
		cc = &ipds.AlarmContext{}
	}
	c.CopyInto(cc)
	select {
	case st.ch <- incMsg{ctx: cc}:
		return true
	default:
		st.freeCtx(cc)
		st.dropped.Inc()
		return false
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
