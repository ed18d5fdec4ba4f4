package server

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/incident"
	"repro/internal/ipds"
	"repro/internal/vm"
	"repro/internal/wire"
)

// session is one live verifier connection, served by one goroutine
// (serve, then finish): it alone reads the connection, drives the
// machine, encodes the replies and writes them. Only the atomics, the
// forensic snapshot under ctxMu and the fields set at registration are
// read from other goroutines (the debug endpoint, CoreStats, Shutdown).
type session struct {
	id        uint64
	core      int      // index of row in Server.rows
	row       *coreRow // the CoreStats row the session's counters sum into
	srv       *Server
	conn      net.Conn
	rd        *wire.Reader
	m         *ipds.Machine
	program   string
	forensics bool // the machine records; emit AlarmCtx after each Alarm
	started   time.Time
	stopSpan  func()

	// b is the session's one decoded batch: every Batch frame is
	// decoded into it, reusing its event storage.
	b wire.Batch

	// sampleCnt picks every spanSampleEvery-th batch to carry a span
	// record.
	sampleCnt uint64

	// acked counts fully verified events — the ack currency every Ack
	// frame carries.
	acked uint64

	// events is acked's published copy for the debug endpoint.
	events atomic.Uint64

	// Telemetry for /debug/sessions, published with events once per
	// pass (see flush): exact for every Ack the client has read.
	batchesN  atomic.Uint64
	alarmsN   atomic.Uint64
	recTotal  atomic.Uint64
	verifyNs  atomic.Uint64 // cumulative wall time inside verify
	lastBatch atomic.Int64  // unix nanos the last published batch started

	// Windowed alarm rate: the session closes ≥1s windows over its own
	// plain fields and publishes the last closed window's rate for the
	// debug handler.
	rateWinStart int64         // unix nanos of the open window's start
	rateWinBase  uint64        // lifetime alarms at the window's start
	rateMilli    atomic.Uint64 // 1 + milli-alarms/s of the last closed window; 0 = none yet

	// lastCtx is the session's most recent forensic capture, deep-copied
	// out of the machine so the debug endpoint never touches machine
	// state.
	ctxMu   sync.Mutex
	hasCtx  bool
	lastCtx ipds.AlarmContext

	// ctxSeen is the high-water mark of the machine's lifetime capture
	// count; fresh captures past it are emitted once.
	ctxSeen uint64

	// fold collects the pass's alarms for the incident stage as
	// records; it is empty between passes and holds no storage until
	// the session's first alarm.
	fold incident.Folder

	// tally is the bookkeeping of the pass in progress; publish flushes
	// it into the session's, its row's and the server-wide counters.
	tally passTally

	// wbuf holds the pass's replies, written with one conn.Write when
	// the pass ends. wfailed latches the first write error: the session
	// is lost, and nothing more is written.
	wbuf    []byte
	wfailed bool

	// spans are the records of the pass's sampled batches, committed
	// with the write that puts their Acks on the wire.
	spans []SpanRec
}

// newSession makes the session a handshake promotes. Registration
// assigns its id and row.
func (s *Server) newSession(conn net.Conn, rd *wire.Reader, m *ipds.Machine, program string) *session {
	ss := &session{
		srv:       s,
		conn:      conn,
		rd:        rd,
		m:         m,
		program:   program,
		forensics: s.cfg.IPDS.Recorder > 0,
		started:   time.Now(),
	}
	if s.incidents != nil {
		ss.fold = s.incidents.NewFolder(foldCap)
	}
	return ss
}

// passTally is one pass's verify bookkeeping: what the pass's batches
// add to the session's, its row's and the server-wide counters,
// accumulated in plain fields and published in one go.
type passTally struct {
	events, batches, alarms, verifyNs uint64
	lastStart                         int64 // unix nanos the pass's newest batch started
	ctx                               bool  // the pass made forensic captures
}

// isClosedErr reports a read failing because the connection was closed
// locally (forced shutdown), which is not a client protocol error.
func isClosedErr(err error) bool {
	return errors.Is(err, net.ErrClosed)
}

// drainGrace is the per-read deadline a draining session reads with:
// long enough to pick up everything a client already had in flight on
// loopback or a LAN, short enough that shutdown stays prompt. A client
// that keeps streaming past the drain is bounded by the Shutdown
// context, which closes connections hard on expiry.
const drainGrace = 50 * time.Millisecond

// maxWriteCoalesce bounds the replies a pass gathers before they are
// written: big enough to swallow a burst of per-batch alarm+ack
// encodings in one syscall, small enough to keep reply latency and
// the session's write buffer bounded.
const maxWriteCoalesce = 256 << 10

// maxPassBatches bounds the batches a pass verifies while the next
// frame is arriving in parts: a streaming client's frames straddle
// every socket fill, and ending the pass at each fill would cost a
// reply write, and a wake-up of the client's reader, per fill.
const maxPassBatches = 64

// maxPassSpans bounds the span records a pass holds before its replies
// are written, so a client stamping every small batch cannot grow them
// past a fixed size.
const maxPassSpans = 64

// spanSampleEvery picks which unstamped batches carry a span record
// for the wait histogram. 1-in-64 keeps it live on any sustained
// stream while the extra clock reads stay invisible next to the verify
// kernel.
const spanSampleEvery = 64

// serve is the session's serve loop: decode a frame, verify it, encode
// its replies, and end the pass — write the replies — when the read
// buffer is empty, so no read that waits on the client leaves a
// verified batch unacknowledged, or when only part of the next frame
// is buffered and the pass has verified maxPassBatches batches. It
// returns on Bye, an error, an idle or drain deadline, a per-session
// limit or a failed write, with any closing Error frame already in the
// write buffer; finish then seals the session. The read deadline is armed only before a read that can
// block, so every read that can wait on the socket starts a fresh
// ReadTimeout while a run of frames one fill delivered costs no
// deadline syscalls. During server drain the loop keeps reading under
// drainGrace deadlines, re-armed before every frame, until the socket
// goes quiet, so events the client sent before the shutdown began are
// still verified (wire.Reader resumes cleanly across the shutdown's
// deadline poke).
func (s *session) serve() {
	srv := s.srv
	notified := false
	for {
		graced := srv.draining.Load()
		if graced && !notified {
			// Advisory drain notice: a fleet-aware client finishes its
			// current pass, drains cleanly and redials — the router places
			// it on another node. Plain clients ignore it (an Error frame
			// is informational until the close).
			notified = true
			s.appendFrame(wire.Error{Code: wire.ErrDraining, Msg: "server draining; drain and redial"})
		}
		buffered := s.rd.FrameBuffered()
		if s.rd.Buffered() == 0 || !buffered && s.tally.batches >= maxPassBatches {
			if s.flush(); s.wfailed {
				return
			}
		}
		if graced {
			s.conn.SetReadDeadline(time.Now().Add(drainGrace))
		} else if !buffered {
			s.conn.SetReadDeadline(time.Now().Add(srv.cfg.ReadTimeout))
			if srv.draining.Load() {
				// Shutdown's deadline poke may have landed before this
				// deadline replaced it: go around under the grace deadline
				// instead of blocking for a full ReadTimeout.
				continue
			}
		}
		f, err := s.rd.NextInto(&s.b)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				if srv.draining.Load() {
					if graced {
						return // quiet under a grace deadline: fully drained
					}
					// The shutdown poke interrupted a blocked read; go
					// around once more to sweep buffered frames.
					continue
				}
				// Idle eviction: tell the client why, then seal.
				srv.met.evictionsTotal.Inc()
				s.appendFrame(wire.Error{Code: wire.ErrIdle, Msg: "idle deadline exceeded"})
			} else if !isClosedErr(err) {
				// Hard protocol garbage or a vanished peer; io.EOF is
				// the silent variant of Bye.
				srv.met.errorsTotal.Inc()
			}
			return
		}
		switch fr := f.(type) {
		case *wire.Batch:
			if len(fr.Events) > srv.cfg.MaxBatch {
				srv.met.errorsTotal.Inc()
				s.appendFrame(wire.Error{Code: wire.ErrProtocol, Msg: "batch exceeds advertised maximum"})
				return
			}
			s.verify(fr)
			if s.m.Depth() > vm.MaxCallDepth {
				s.limit()
				return
			}
			if len(s.wbuf) >= maxWriteCoalesce || len(s.spans) == maxPassSpans {
				if s.flush(); s.wfailed {
					return
				}
			}
		case wire.Bye:
			return
		default:
			srv.met.errorsTotal.Inc()
			s.appendFrame(wire.Error{Code: wire.ErrProtocol, Msg: "unexpected " + fr.Type().String() + " frame"})
			return
		}
	}
}

// verify feeds one batch through the session's machine via the
// zero-allocation OnBatch kernel, appends the raised alarms, the fresh
// forensic captures and the batch's Ack to the write buffer, folds the
// alarms into the session's incident records and tallies the batch
// into the pass.
func (s *session) verify(b *wire.Batch) {
	srv := s.srv
	n := len(b.Events)
	start := nowNs()
	// The returned alarm slice is machine-owned and valid until the
	// machine's next batch.
	alarms := s.m.OnBatch(b.Events)
	sampled := s.sampled(b)
	var verifyEnd int64
	if sampled {
		verifyEnd = nowNs()
	}
	inc := srv.incidents
	for i := range alarms {
		var err error
		if s.wbuf, err = wire.AppendAlarm(s.wbuf, alarmFrame(&alarms[i])); err != nil {
			panic(err) // alarmFrame clamps Func; unreachable absent a bug
		}
		if inc != nil {
			s.collect(&alarms[i])
		}
	}
	// Emission is capture-driven: each context the machine snapshotted
	// during this batch (alarms past the storm throttle) goes out once,
	// after the batch's alarm frames, paired to its alarm by Seq. A
	// batch whose alarms were all throttled costs one counter compare.
	if s.forensics {
		if tot := s.m.CtxCaptured(); tot != s.ctxSeen {
			fresh := int(tot - s.ctxSeen)
			s.ctxSeen = tot
			s.tally.ctx = true
			// The context ring is shallow: in a pathological burst the
			// oldest captures of this batch may already be overwritten
			// before emission. Counted, never silent.
			if n := s.m.ContextCount(); fresh > n {
				srv.met.ctxDropped.Add(uint64(fresh - n))
				fresh = n
			}
			for i := s.m.ContextCount() - fresh; i < s.m.ContextCount(); i++ {
				c := s.m.ContextAt(i)
				var ok bool
				s.wbuf, ok = appendAlarmCtx(s.wbuf, c)
				if ok {
					srv.met.ctxTotal.Inc()
				} else {
					srv.met.ctxDropped.Inc()
				}
				if inc != nil {
					s.offerCtx(c)
				}
			}
		}
	}
	s.acked += uint64(n)
	s.wbuf = wire.AppendAck(s.wbuf, wire.Ack{Events: s.acked})
	end := max(nowNs(), start) // a wall-clock step back must not wrap spent
	spent := uint64(end - start)
	srv.met.verifyNs.Observe(spent)
	srv.met.batchLen.Observe(uint64(n))
	t := &s.tally
	t.events += uint64(n)
	t.batches++
	t.alarms += uint64(len(alarms))
	t.verifyNs += spent
	t.lastStart = start
	if sampled {
		sp := SpanRec{
			Session: s.id, Core: s.core, Events: n, Alarms: len(alarms),
			ReadNs: start, DequeueNs: start, VerifyEndNs: verifyEnd, OfferEndNs: end,
		}
		if b.TraceID != 0 && srv.cfg.TraceRing > 0 {
			sp.TraceID = b.TraceID
			sp.OriginNs = int64(b.OriginNs)
		}
		s.spans = append(s.spans, sp)
	}
}

// sampled reports whether a just-read batch gets a span record: a
// client-stamped batch does, and so does every spanSampleEvery-th batch
// of the session. The record's stamps feed the wait histograms, and a
// stamped one is also kept for /debug/trace.
func (s *session) sampled(b *wire.Batch) bool {
	n := s.sampleCnt
	s.sampleCnt++
	return n%spanSampleEvery == 0 || (b.TraceID != 0 && s.srv.cfg.TraceRing > 0)
}

// appendFrame encodes one control frame into the write buffer.
func (s *session) appendFrame(f wire.Frame) {
	s.wbuf = wire.MustAppend(s.wbuf, f)
}

// flush ends a pass: it feeds the pass's incident records, publishes
// its tally, writes its replies with one conn.Write and commits the
// span records that write acknowledged. Telemetry is published before
// the write, so a client holding an Ack reads counters that cover it.
// A failed write latches wfailed; the session is then lost.
func (s *session) flush() {
	s.offerRecords()
	s.publish()
	if len(s.wbuf) == 0 || s.wfailed {
		s.wbuf, s.spans = s.wbuf[:0], s.spans[:0]
		return
	}
	srv := s.srv
	srv.met.coalesceBytes.Observe(uint64(len(s.wbuf)))
	s.conn.SetWriteDeadline(time.Now().Add(srv.cfg.WriteTimeout))
	_, err := s.conn.Write(s.wbuf)
	s.wbuf = s.wbuf[:0]
	if err != nil {
		s.wfailed = true
		if !isClosedErr(err) {
			srv.met.errorsTotal.Inc()
		}
	} else if len(s.spans) > 0 {
		// One clock read stamps every sampled batch this write acked.
		now := nowNs()
		for i := range s.spans {
			srv.spanCommit(s.row, &s.spans[i], now)
		}
	}
	s.spans = s.spans[:0]
}

// limit ends a session whose table stack grew deeper than one VM run
// nests (vm.MaxCallDepth): without the bound, a stream of function
// entries grows the machine's activation stack for as long as the
// client keeps sending. The client is told why and serve stops
// reading; finish then seals the session as usual — incidents, the
// final Ack for what was verified, Bye. The stack is checked after
// every batch, so it never grows more than one batch past the bound.
func (s *session) limit() {
	s.srv.met.sessionLimit.Inc()
	s.appendFrame(wire.Error{Code: wire.ErrLimit,
		Msg: fmt.Sprintf("table stack depth %d exceeds the call-depth limit %d", s.m.Depth(), vm.MaxCallDepth)})
}

// finish seals a session whose serve loop has stopped: the ranked
// incident fold (a draining session is told what its alarm storm
// meant), the final cumulative Ack and Bye go out behind whatever the
// loop left in the write buffer, then the connection is closed and the
// session unregistered. A session whose write failed only closes.
func (s *session) finish() {
	srv := s.srv
	s.offerRecords()
	s.publish()
	// Every record this session fed is in the analyzer: the feeds ran on
	// this goroutine. Its dedup filter is freed behind its last records.
	if inc := srv.incidents; inc != nil {
		if s.alarmsN.Load() > 0 {
			inc.EndSession(s.id)
		}
		if !s.wfailed {
			incs := inc.Incidents()
			if len(incs) > maxIncidentFrames {
				incs = incs[:maxIncidentFrames]
			}
			for i := range incs {
				s.appendFrame(incidentFrame(&incs[i]))
			}
		}
	}
	s.appendFrame(wire.Ack{Events: s.acked})
	s.appendFrame(wire.Bye{})
	s.flush()
	s.conn.Close()
	s.wbuf, s.spans = nil, nil
	srv.unregister(s)
}

// publish flushes the pass tally into its row's counters, the
// session's /debug/sessions telemetry and the server-wide series, and
// resets it. A pass that verified no batch publishes nothing. A pass
// that made forensic captures also refreshes the session's snapshot
// from the newest of them.
func (s *session) publish() {
	t := &s.tally
	if t.batches == 0 {
		return
	}
	met := &s.srv.met
	met.eventsTotal.Add(t.events)
	met.batchesTotal.Add(t.batches)
	met.alarmsTotal.Add(t.alarms)
	r := s.row
	r.events.Add(t.events)
	r.batches.Add(t.batches)
	r.alarms.Add(t.alarms)
	r.verifyNs.Add(t.verifyNs)
	s.events.Store(s.acked)
	s.batchesN.Add(t.batches)
	total := s.alarmsN.Add(t.alarms)
	s.verifyNs.Add(t.verifyNs)
	s.recTotal.Store(s.m.RecorderTotal())
	s.lastBatch.Store(t.lastStart)
	s.updateRate(t.lastStart, total)
	if c := s.m.LastContext(); t.ctx && c != nil {
		// CopyInto reuses the snapshot's slices, so the steady state
		// stays allocation-free.
		s.ctxMu.Lock()
		c.CopyInto(&s.lastCtx)
		s.hasCtx = true
		s.ctxMu.Unlock()
	}
	*t = passTally{}
}

// collect folds one alarm into the pass's incident records, feeding
// them to the analyzer when the folder fills.
func (s *session) collect(a *ipds.Alarm) {
	if s.fold.Add(s.id, a.Seq, a.PC, a.Func) {
		s.offerRecords()
	}
}

// offerRecords feeds the records folded so far to the analyzer and
// empties the folder.
func (s *session) offerRecords() {
	if recs := s.fold.Records(); len(recs) > 0 {
		s.srv.incidents.ObserveRecords(recs)
		s.fold.Reset()
	}
}

// offerCtx feeds one forensic capture to the analyzer, after its alarm:
// the analyzer drops a context whose signal it has not seen yet. The
// analyzer copies only a capture that precedes its signal's kept one;
// c stays machine-owned.
func (s *session) offerCtx(c *ipds.AlarmContext) {
	s.offerRecords()
	s.srv.incidents.ObserveContext(c)
}

// updateRate advances the session's alarm-rate window: called when a
// pass publishes, with the start time of the pass's newest batch and
// the session's lifetime alarm total; windows at least one second wide
// are closed into the published rate.
func (s *session) updateRate(nowNs int64, totalAlarms uint64) {
	if s.rateWinStart == 0 {
		s.rateWinStart = s.started.UnixNano()
	}
	dt := nowNs - s.rateWinStart
	if dt < int64(time.Second) {
		return
	}
	delta := totalAlarms - s.rateWinBase
	// delta·10¹² overflows 64 bits past ~1.8e7 alarms in a window (a
	// wholesale-tamper flood fills one in a second): multiply into 128
	// bits. The quotient only overflows at rates past 1.8e16 milli-alarms
	// per second; saturate there rather than let Div64 panic.
	milli := uint64(math.MaxUint64 - 1)
	if hi, lo := bits.Mul64(delta, 1000*uint64(time.Second)); hi < uint64(dt) {
		milli, _ = bits.Div64(hi, lo, uint64(dt))
	}
	s.rateMilli.Store(1 + milli) // +1 keeps "a closed window of zero" distinct from "no window yet"
	s.rateWinStart, s.rateWinBase = nowNs, totalAlarms
}

// alarmRate reports the session's alarms per second: the last closed
// window when one exists, otherwise the lifetime average since start —
// so a young or just-idle session still reads sensibly.
func (s *session) alarmRate(now time.Time) float64 {
	if m := s.rateMilli.Load(); m != 0 {
		return float64(m-1) / 1000
	}
	age := now.Sub(s.started).Seconds()
	if age <= 0 {
		return 0
	}
	return float64(s.alarmsN.Load()) / age
}
