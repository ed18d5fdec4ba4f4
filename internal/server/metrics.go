package server

import (
	"repro/internal/ipds"
	"repro/internal/obs"
)

// metrics is the server-wide instrument set. All fields may be nil
// (registry absent); obs metrics are nil-receiver no-ops, so the hot
// path never branches on telemetry being configured.
type metrics struct {
	sessionsActive *obs.Gauge   // server_sessions_active
	sessionsTotal  *obs.Counter // server_sessions_total
	eventsTotal    *obs.Counter // server_events_total
	batchesTotal   *obs.Counter // server_batches_total
	backpressure   *obs.Counter // server_backpressure_stalls_total
	alarmsTotal    *obs.Counter // server_alarms_total
	errorsTotal    *obs.Counter // server_errors_total
	evictionsTotal *obs.Counter // server_evictions_total
	sessionLimit   *obs.Counter // server_session_limit_total
	batchLen       *obs.Histogram
	verifyNs       *obs.Histogram

	// Serve-path telemetry: ring and coalescing shape plus the span
	// waits. readFrames is the reader-side coalescing twin of
	// coalesceBytes — frames one socket read delivered per ring publish.
	// The wait histograms are fed at span commit from every sampled
	// batch's record (DESIGN.md §9), so their _count counts samples.
	ringDepth     *obs.Histogram // server_ring_depth (at publish)
	readFrames    *obs.Histogram // server_read_coalesced_frames (per publish)
	coalesceBytes *obs.Histogram // server_write_coalesced_bytes (per flush)
	queueWaitNs   *obs.Histogram // server_queue_wait_ns (ReadNs → DequeueNs)
	writeWaitNs   *obs.Histogram // server_write_wait_ns (OfferEndNs → AckNs)

	// e2eNs is the traced-batch end-to-end latency (client origin → ack
	// flush), observed at span commit time — only traced batches feed it.
	e2eNs *obs.Histogram // server_e2e_ns

	// Forensics: AlarmCtx frames emitted, and contexts that could not
	// be (overwritten in the machine's shallow context ring, or past a
	// wire limit) — counted, never silent.
	ctxTotal   *obs.Counter // server_alarm_ctx_total
	ctxDropped *obs.Counter // server_alarm_ctx_dropped_total

	// Aggregated machine counters, absorbed from each session's
	// ipds.Machine when the session ends.
	mBranches      *obs.Counter // server_machine_branches_total
	mVerified      *obs.Counter // server_machine_verified_total
	mStrictRejects *obs.Counter // server_strict_rejects_total
}

func newMetrics(r *obs.Registry) metrics {
	return metrics{
		sessionsActive: r.Gauge("server_sessions_active"),
		sessionsTotal:  r.Counter("server_sessions_total"),
		eventsTotal:    r.Counter("server_events_total"),
		batchesTotal:   r.Counter("server_batches_total"),
		backpressure:   r.Counter("server_backpressure_stalls_total"),
		alarmsTotal:    r.Counter("server_alarms_total"),
		errorsTotal:    r.Counter("server_errors_total"),
		evictionsTotal: r.Counter("server_evictions_total"),
		sessionLimit:   r.Counter("server_session_limit_total"),
		batchLen:       r.Histogram("server_batch_events"),
		verifyNs:       r.Histogram("server_verify_ns"),
		ringDepth:      r.Histogram("server_ring_depth"),
		readFrames:     r.Histogram("server_read_coalesced_frames"),
		coalesceBytes:  r.Histogram("server_write_coalesced_bytes"),
		queueWaitNs:    r.Histogram("server_queue_wait_ns"),
		writeWaitNs:    r.Histogram("server_write_wait_ns"),
		e2eNs:          r.Histogram("server_e2e_ns"),
		ctxTotal:       r.Counter("server_alarm_ctx_total"),
		ctxDropped:     r.Counter("server_alarm_ctx_dropped_total"),
		mBranches:      r.Counter("server_machine_branches_total"),
		mVerified:      r.Counter("server_machine_verified_total"),
		mStrictRejects: r.Counter("server_strict_rejects_total"),
	}
}

// absorb folds a finished session machine's counters into the
// server-wide series.
func (m *metrics) absorb(st ipds.Stats) {
	m.mBranches.Add(st.Branches)
	m.mVerified.Add(st.Verified)
	m.mStrictRejects.Add(st.StrictRejects)
}
