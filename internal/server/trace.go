package server

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"time"
)

// Wire-level trace expansion: a client that stamps a Batch with the
// trace extension (wire.Batch.TraceID) gets that batch expanded, on
// the daemon, into a per-stage span record — read/decode, kernel
// verify, incident offer + forensics emission, reply coalesce → ack
// write — committed into a bounded ring on the session's CoreStats row
// once the ack bytes are on the wire. /debug/trace exports the rings as
// Chrome trace-event JSON (chrome://tracing, Perfetto), one track per
// row.
//
// The same records are the daemon's only latency sampler: a session
// also takes one for every spanSampleEvery-th batch, stamped or not,
// and every committed record feeds the server_write_wait_ns histogram.
//
// Cost model: an unsampled batch pays two predictable branches (trace
// stamp, sample counter) — the zero-alloc serve path, alloc-gate
// enforced. A sampled batch appends one record to its session's pass,
// stamps it with one extra clock read, and feeds the wait histogram at
// write time. Only a client-stamped record goes on into the e2e
// histogram and its row's ring, under a mutex no untraced batch ever
// touches.

// SpanRec is one sampled batch's per-stage latency record; TraceID is
// 0 on one the daemon sampled on its own, which never reaches the
// rings or TraceSpans. All *Ns fields except OriginNs are the daemon's
// clock (unix nanoseconds) stamped by the session as the batch moves
// through it, so within a record ReadNs ≤ DequeueNs ≤ VerifyEndNs ≤
// OfferEndNs ≤ AckNs by construction. The session verifies a batch as
// soon as it is decoded, so DequeueNs equals ReadNs: no queue is left
// between them. OriginNs is the client's clock: the wire leg derived
// from it absorbs any cross-host skew, never the daemon-side ordering.
type SpanRec struct {
	TraceID uint64 `json:"trace_id"`
	Session uint64 `json:"session"`
	Core    int    `json:"core"`
	Events  int    `json:"events"`
	Alarms  int    `json:"alarms"`

	OriginNs    int64 `json:"origin_ns"` // client stamp; 0 = none sent
	ReadNs      int64 `json:"read_ns"`   // reader: frame read + decoded
	DequeueNs   int64 `json:"dequeue_ns"`
	VerifyEndNs int64 `json:"verify_end_ns"`
	OfferEndNs  int64 `json:"offer_end_ns"`
	AckNs       int64 `json:"ack_ns"` // the reply write completed
}

// E2ENs is the record's end-to-end batch latency: client origin → ack
// flush when the client stamped an origin (same-host clocks in the
// gates; skewed cross-host stamps fall back), daemon read → ack flush
// otherwise.
func (r SpanRec) E2ENs() int64 {
	if r.OriginNs > 0 && r.OriginNs <= r.AckNs {
		return r.AckNs - r.OriginNs
	}
	return r.AckNs - r.ReadNs
}

// spanRing is one CoreStats row's bounded committed-record ring. The
// row's sessions commit and the debug endpoint snapshots under its
// mutex. Untraced traffic never touches it, and its records are
// allocated by the first commit, so a row that never sees a stamped
// batch holds none.
type spanRing struct {
	mu   sync.Mutex
	size int
	buf  []SpanRec // nil until the first commit
	n    uint64    // lifetime commits; buf[(n-1) % len] is the newest
}

func newSpanRing(capacity int) *spanRing {
	if capacity <= 0 {
		return nil
	}
	return &spanRing{size: capacity}
}

// commit stores one finished record, overwriting the oldest.
func (r *spanRing) commit(rec SpanRec) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.buf == nil {
		r.buf = make([]SpanRec, r.size)
	}
	r.buf[r.n%uint64(len(r.buf))] = rec
	r.n++
	r.mu.Unlock()
}

// snapshot appends the ring's live records onto dst, oldest first.
func (r *spanRing) snapshot(dst []SpanRec) []SpanRec {
	if r == nil {
		return dst
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n, size := r.n, uint64(r.size)
	start := uint64(0)
	if n > size {
		start = n - size
	}
	for i := start; i < n; i++ {
		dst = append(dst, r.buf[i%size])
	}
	return dst
}

// TraceSpans snapshots every row's committed span records, ordered by
// daemon read time. The rings are bounded (Config.TraceRing per row),
// so this is the most recent window, not a full history.
func (s *Server) TraceSpans() []SpanRec {
	var out []SpanRec
	for _, r := range s.rows {
		out = r.spans.snapshot(out)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ReadNs < out[j].ReadNs })
	return out
}

// TraceE2E reports the p50 and p99 end-to-end batch latency over the
// currently retained span records, in nanoseconds; zeros when nothing
// has been traced.
func (s *Server) TraceE2E() (p50, p99 int64) {
	return e2eQuantiles(s.TraceSpans())
}

// e2eQuantiles reports the p50 and p99 of recs' end-to-end latencies;
// zeros for no records.
func e2eQuantiles(recs []SpanRec) (p50, p99 int64) {
	if len(recs) == 0 {
		return 0, 0
	}
	lat := make([]int64, len(recs))
	for i, r := range recs {
		lat[i] = r.E2ENs()
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	idx := func(q float64) int64 {
		i := int(q * float64(len(lat)-1))
		return lat[i]
	}
	return idx(0.50), idx(0.99)
}

// chromeTraceEvent is one Chrome trace-event entry ("X" = complete
// event, ts/dur in microseconds). Pid groups the daemon, tid is the
// CoreStats row, so each row renders as its own track.
type chromeTraceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// traceStages turns one record into its Chrome stage events. Stages
// are emitted only when their interval is well-formed, so a record
// from a skewed client still renders its daemon-side stages.
func traceStages(r SpanRec, epoch int64) []chromeTraceEvent {
	us := func(ns int64) float64 { return float64(ns-epoch) / 1e3 }
	args := map[string]any{
		"trace_id": r.TraceID,
		"session":  r.Session,
		"events":   r.Events,
		"alarms":   r.Alarms,
	}
	var evs []chromeTraceEvent
	add := func(name string, from, to int64, tid int) {
		if from <= 0 || to < from {
			return
		}
		evs = append(evs, chromeTraceEvent{
			Name: name, Ph: "X",
			Ts: us(from), Dur: float64(to-from) / 1e3,
			Pid: 1, Tid: tid, Args: args,
		})
	}
	// The wire leg (client encode + router splice + socket read) is
	// derived from the client's origin stamp; it renders on a separate
	// track (-1) because it is not the daemon's work.
	if r.OriginNs > 0 && r.OriginNs <= r.ReadNs {
		add("wire", r.OriginNs, r.ReadNs, -1)
	}
	add("queue_wait", r.ReadNs, r.DequeueNs, r.Core)
	add("verify", r.DequeueNs, r.VerifyEndNs, r.Core)
	add("offer", r.VerifyEndNs, r.OfferEndNs, r.Core)
	add("write_ack", r.OfferEndNs, r.AckNs, r.Core)
	return evs
}

// WriteChromeTrace renders the retained span records as a Chrome
// trace-event JSON array. Timestamps are rebased to the earliest
// record so the trace starts at t=0.
func (s *Server) WriteChromeTrace(w http.ResponseWriter) {
	recs := s.TraceSpans()
	var epoch int64
	for _, r := range recs {
		base := r.ReadNs
		if r.OriginNs > 0 && r.OriginNs < base {
			base = r.OriginNs
		}
		if epoch == 0 || base < epoch {
			epoch = base
		}
	}
	evs := []chromeTraceEvent{}
	for _, r := range recs {
		evs = append(evs, traceStages(r, epoch)...)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(evs)
}

// TraceHandler serves the span rings as Chrome trace-event JSON —
// mounted by ipdsd at /debug/trace, fetched by `ipdsload trace`. With
// ?spans=1 it serves the raw SpanRec list instead (what the fleet
// aggregation and tests consume).
func (s *Server) TraceHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Query().Get("spans") != "" {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(struct {
				Spans []SpanRec `json:"spans"`
			}{s.TraceSpans()})
			return
		}
		s.WriteChromeTrace(w)
	})
}

// spanCommit finishes a record at reply-write time: stamps AckNs,
// feeds the wait histogram and, for a client-stamped record, the e2e
// histogram and the row's ring.
func (s *Server) spanCommit(r *coreRow, sp *SpanRec, ackNs int64) {
	sp.AckNs = ackNs
	// The span clock is the wall clock: a sample straddling a clock
	// step backwards comes out negative and is skipped.
	if d := sp.AckNs - sp.OfferEndNs; d >= 0 {
		s.met.writeWaitNs.Observe(uint64(d))
	}
	if sp.TraceID != 0 {
		if e2e := sp.E2ENs(); e2e > 0 {
			s.met.e2eNs.Observe(uint64(e2e))
		}
		r.spans.commit(*sp)
	}
}

// nowNs is the span clock: one name for "the daemon's monotonic-ish
// wall clock in unix nanoseconds".
func nowNs() int64 { return time.Now().UnixNano() }
