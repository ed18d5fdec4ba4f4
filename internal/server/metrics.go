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
	alarmsTotal    *obs.Counter // server_alarms_total
	errorsTotal    *obs.Counter // server_errors_total
	evictionsTotal *obs.Counter // server_evictions_total
	sessionLimit   *obs.Counter // server_session_limit_total
	batchLen       *obs.Histogram
	verifyNs       *obs.Histogram

	// Serve-path telemetry: reply coalescing and the write wait. The
	// wait histogram is fed at span commit from every sampled batch's
	// record (DESIGN.md §9), so its _count counts samples.
	coalesceBytes *obs.Histogram // server_write_coalesced_bytes (per write)
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
		alarmsTotal:    r.Counter("server_alarms_total"),
		errorsTotal:    r.Counter("server_errors_total"),
		evictionsTotal: r.Counter("server_evictions_total"),
		sessionLimit:   r.Counter("server_session_limit_total"),
		batchLen:       r.Histogram("server_batch_events"),
		verifyNs:       r.Histogram("server_verify_ns"),
		coalesceBytes:  r.Histogram("server_write_coalesced_bytes"),
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
