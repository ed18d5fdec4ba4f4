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
	"repro/internal/ring"
	"repro/internal/wire"
)

// The incident stage: a bounded FIFO and one consumer goroutine
// between the sessions and an incident.Analyzer. A session never
// hands the stage one alarm at a time: it folds a pass's alarms into
// one incident.Record per (signal, bucket) and offers the pass's
// records as one run — one lock, one copy into the FIFO — so an alarm
// flood costs the serve path one queue operation per pass and the
// analyzer one update per record, not per alarm. The serve loop keeps
// its zero-allocation contract (the FIFO grows to its high-water mark
// and stays there, context copies are recycled through a free list),
// and while the FIFO is at most a quarter full an offer never waits on
// analysis. Past a quarter, the offering session feeds the analyzer
// itself until the backlog is gone (help): with a session goroutine per
// client, a flood can outrun the one consumer's share of the CPU. Only
// what meets a full FIFO is dropped from analysis — its alarms counted,
// never silently — while verification and alarm delivery continue.

// DefaultIncidentQueue bounds the analytics feed queue between the
// sessions and the analyzer, in records and forensic contexts.
const DefaultIncidentQueue = 8192

// foldCap is the record capacity of a session's folder. A session
// offers its records when the folder fills, before any forensic
// context (the analyzer discards a context whose signal it has not yet
// seen), and at the end of every pass, so a pass that folds more
// records than this offers them 256 at a time (docs/PERFORMANCE.md,
// "Slab size, measured", has the pass sizes of the measured floods).
const foldCap = 256

// incQueueMin is the FIFO's first allocation, made by the first offer.
const incQueueMin = 16

// incPop bounds the items one feed takes from the FIFO per lock.
const incPop = 64

// incItem is one FIFO entry: a record of alarms (rec.Count > 0), a
// forensic capture (ctx), or the end of session rec.Session (neither).
type incItem struct {
	rec incident.Record
	ctx *ipds.AlarmContext
}

// incidentStage owns the analyzer and its feed queue.
type incidentStage struct {
	an *incident.Analyzer
	pk *ring.Parker // the consumer's wait; offers wake it

	// feed serialises taking items off the FIFO with handing them to the
	// analyzer, so the analyzer meets them in FIFO order whoever feeds
	// them: the consumer, or a producer helping with a backlog (help).
	// items and recs are the feed's scratch.
	feed  sync.Mutex
	items [incPop]incItem
	recs  [incPop]incident.Record

	// mu guards the FIFO, the counts, the context free list and closed.
	// The FIFO is a ring over buf holding n items from head. buf is nil
	// until the first offer and doubles when full, up to bound for
	// records and contexts, which are dropped past it; session ends are
	// always queued, past the bound if need be (one per finishing
	// session that alarmed).
	mu     sync.Mutex
	buf    []incItem
	head   int
	n      int
	bound  int
	closed bool

	// pushed counts the items ever queued and consumed those the
	// analyzer is done with; sync waits on drained for consumed to
	// reach the pushed count it started at.
	pushed, consumed uint64
	drained          sync.Cond

	// free recycles the deep copies that carry forensic captures across
	// the queue (the machine-owned originals are only valid until the
	// machine's next batch). It is a free list rather than a sync.Pool
	// because a GC empties a Pool, after which every session would
	// allocate afresh; copies in flight never outnumber the queue's
	// bound, so it keeps every copy ever made.
	free []*ipds.AlarmContext

	wg sync.WaitGroup

	dropped *obs.Counter // incident_queue_dropped_total (alarms and contexts)
	depth   *obs.Gauge   // incident_queue_depth (items, sampled per offer)
}

// newIncidentStage starts the consumer goroutine.
func newIncidentStage(cfg incident.Config, queue int, reg *obs.Registry) *incidentStage {
	if queue <= 0 {
		queue = DefaultIncidentQueue
	}
	cfg.Reg = reg
	st := &incidentStage{
		an:      incident.NewAnalyzer(cfg),
		pk:      ring.NewParker(),
		bound:   queue,
		dropped: reg.Counter("incident_queue_dropped_total"),
		depth:   reg.Gauge("incident_queue_depth"),
	}
	st.drained.L = &st.mu
	st.start()
	return st
}

// start runs the consumer.
func (st *incidentStage) start() {
	st.wg.Add(1)
	go st.run()
}

// push appends one item; st.mu is held. It reports false, queueing
// nothing, when a bounded item meets a full queue.
func (st *incidentStage) push(it incItem, bounded bool) bool {
	if bounded && st.n >= st.bound {
		return false
	}
	if st.n == len(st.buf) {
		size := min(max(2*len(st.buf), incQueueMin), st.bound)
		if size <= st.n { // a session end at the bound
			size = st.n + incQueueMin
		}
		buf := make([]incItem, size)
		k := copy(buf, st.buf[st.head:])
		copy(buf[k:], st.buf[:st.head])
		st.buf, st.head = buf, 0
	}
	i := st.head + st.n
	if i >= len(st.buf) {
		i -= len(st.buf)
	}
	st.buf[i] = it
	st.n++
	st.pushed++
	return true
}

// pop moves up to len(dst) items, oldest first, into dst and clears
// their slots; st.mu is held.
func (st *incidentStage) pop(dst []incItem) int {
	k := min(st.n, len(dst))
	for j := range k {
		dst[j] = st.buf[st.head]
		st.buf[st.head] = incItem{}
		if st.head++; st.head == len(st.buf) {
			st.head = 0
		}
	}
	st.n -= k
	return k
}

// run is the consumer: it feeds the FIFO to the analyzer a run at a
// time, parks while the FIFO is empty, and returns once the stage is
// closed and drained.
func (st *incidentStage) run() {
	defer st.wg.Done()
	for {
		st.feed.Lock()
		n := st.feedRun()
		st.feed.Unlock()
		if n > 0 {
			continue
		}
		st.pk.Prepare()
		st.mu.Lock()
		queued, closed := st.n, st.closed
		st.mu.Unlock()
		switch {
		case queued > 0:
			st.pk.Cancel()
		case closed:
			st.pk.Cancel()
			return
		default:
			st.pk.Park()
		}
	}
}

// feedRun takes up to incPop items off the FIFO, oldest first, hands
// them to the analyzer — each stretch of records under one analyzer
// lock — and returns how many it fed. It counts them consumed once the
// analyzer is done with them: FIFO order is what makes sync mean
// "everything offered before me has been analyzed". st.feed is held.
func (st *incidentStage) feedRun() int {
	st.mu.Lock()
	n := st.pop(st.items[:])
	st.mu.Unlock()
	if n == 0 {
		return 0
	}
	k := 0
	for i := range st.items[:n] {
		it := &st.items[i]
		if it.rec.Count > 0 {
			st.recs[k] = it.rec
			k++
			continue
		}
		st.an.ObserveRecords(st.recs[:k])
		k = 0
		if it.ctx != nil {
			st.an.ObserveContext(it.ctx)
			st.mu.Lock()
			st.free = append(st.free, it.ctx)
			st.mu.Unlock()
		} else {
			st.an.EndSession(it.rec.Session)
		}
	}
	st.an.ObserveRecords(st.recs[:k])
	clear(st.items[:n])
	st.mu.Lock()
	st.consumed += uint64(n)
	st.drained.Broadcast()
	st.mu.Unlock()
	return n
}

// backlogged reports whether the FIFO holds more than a quarter of its
// bound; st.mu is held.
func (st *incidentStage) backlogged() bool { return st.n > st.bound/4 }

// help feeds the FIFO from a producer's goroutine until it is no longer
// backlogged, taking its turn at the feed. With many sessions busy, the
// consumer is one goroutine among many, and its turns on a P come too
// seldom to keep up with a flood: a session that meets a backlog pays
// for analysis on its own path instead of having its records dropped.
// A closed stage is left to its consumer.
func (st *incidentStage) help() {
	st.feed.Lock()
	defer st.feed.Unlock()
	for {
		st.mu.Lock()
		more := st.backlogged() && !st.closed
		st.mu.Unlock()
		if !more || st.feedRun() == 0 {
			return
		}
	}
}

// offer queues a run of records, non-blocking, and returns how many it
// accepted: the run's head, as much of it as the queue has room for,
// or none when it is full. The alarms of the rest are dropped from
// analysis (counted) rather than stalling a session. recs stays
// caller-owned.
func (st *incidentStage) offer(recs []incident.Record) int {
	st.mu.Lock()
	k := 0
	for k < len(recs) && st.push(incItem{rec: recs[k]}, true) {
		k++
	}
	st.depth.Set(int64(st.n))
	backlog := st.backlogged()
	st.mu.Unlock()
	if k > 0 {
		st.pk.Wake()
	}
	if backlog {
		st.help()
	}
	var lost uint64
	for _, r := range recs[k:] {
		lost += r.Count
	}
	if lost > 0 {
		st.dropped.Add(lost)
	}
	return k
}

// offerCtx feeds one forensic capture, non-blocking, and reports
// whether it was queued. The capture is deep-copied, under the queue
// lock, into a recycled context; c stays caller-owned.
func (st *incidentStage) offerCtx(c *ipds.AlarmContext) bool {
	st.mu.Lock()
	ok := st.n < st.bound
	if ok {
		var cc *ipds.AlarmContext
		if k := len(st.free); k > 0 {
			cc = st.free[k-1]
			st.free = st.free[:k-1]
		} else {
			cc = &ipds.AlarmContext{}
		}
		c.CopyInto(cc)
		st.push(incItem{ctx: cc}, true)
	}
	backlog := st.backlogged()
	st.mu.Unlock()
	if backlog {
		st.help()
	}
	if !ok {
		st.dropped.Inc()
		return false
	}
	st.pk.Wake()
	return true
}

// endSession queues the end of a session, after every record it
// offered: the analyzer then frees the session's dedup filter.
func (st *incidentStage) endSession(id uint64) {
	st.mu.Lock()
	st.push(incItem{rec: incident.Record{Session: id}}, false)
	st.mu.Unlock()
	st.pk.Wake()
}

// sync blocks until every observation offered before the call has been
// consumed by the analyzer. It queues nothing, and is a no-op after
// close.
func (st *incidentStage) sync() {
	st.mu.Lock()
	defer st.mu.Unlock()
	for target := st.pushed; st.consumed < target && !st.closed; {
		st.drained.Wait()
	}
}

// close stops the consumer after draining the queue. Callable once all
// producers have stopped (the server sequences this after every
// session goroutine exits).
func (st *incidentStage) close() {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return
	}
	st.closed = true
	st.drained.Broadcast()
	st.mu.Unlock()
	st.pk.Wake()
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
