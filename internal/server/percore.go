package server

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/internal/incident"
	"repro/internal/ipds"
	"repro/internal/ring"
	"repro/internal/vm"
	"repro/internal/wire"
)

// The per-core serve path. One verifier goroutine and one writer
// goroutine per configured core (default GOMAXPROCS), wired with SPSC
// rings so no queue in the steady state ever has more than one
// producer and one consumer:
//
//	reader (per conn) ──session ring──▶ verifier (per core)
//	verifier (per core) ──writer ring──▶ writer (per core)
//
// Sessions are pinned to a verifier by a consistent hash of the
// session id (jump hash over the verifier count), so one goroutine
// owns a session's ipds.Machine for the session's whole life and the
// machines never migrate — no locks, no cache-line ping-pong, and the
// per-session event order the verification semantics require falls out
// of ring FIFO. There is deliberately NO work stealing: stealing a
// session would move its machine across goroutines mid-stream, which
// the single-owner memory layout (DESIGN.md §8) forbids; imbalance is
// handled by the hash spreading sessions, and surfaces in the
// per-core breakdown (CoreStats) rather than being papered over.
//
// Lifecycle traffic rides the same rings as data: a reader that stops
// pushes a final done-marked task, so by ring FIFO the verifier sees
// it strictly after every batch the session ever queued — the drain
// guarantee needs no pending counters or mutexes. The verifier folds
// the session's close into the writer ring the same way, and the
// writer retires the connection after flushing everything queued
// before it.

// verifyPop bounds how many tasks a verifier pops from one session's
// ring per scan pass — large enough to amortise the head publish,
// small enough that a chatty session cannot starve its core-mates.
const verifyPop = 32

// writePop bounds the writer's per-cycle pop; everything popped in one
// cycle coalesces into at most one conn.Write per distinct session.
const writePop = 64

// pinVerifier picks the verifier a session id is pinned to: the same
// mix-then-jump consistent hash (fleet.Mix, fleet.Jump) the router
// uses one level up to pick the node. Session ids are sequential, so
// the key is pre-mixed to decorrelate adjacent ids before the jump
// walk.
func (s *Server) pinVerifier(id uint64) *verifier {
	return s.verifiers[fleet.Jump(fleet.Mix(id), len(s.verifiers))]
}

// writeOp is one entry in a per-core writer ring. Exactly one of fb,
// close or stop is meaningful: fb hands over one pooled frame
// encoding, close retires the session's connection after a flush, and
// stop (s == nil) ends the writer — pushed by the verifier as its very
// last op, so ring FIFO guarantees nothing is left behind it.
type writeOp struct {
	s     *session
	fb    *frameBuf
	close bool
	stop  bool
}

// verifier is one per-core verify loop. It exclusively owns the
// ipds.Machine of every session pinned to it, scans their rings round
// robin, and is the only producer into its core's writer ring.
//
// pk is the loop's only wait: it parks there when no owned ring has
// work (woken by readers, adopt and Shutdown) and when its writer ring
// is full (woken by the writer after every pop).
type verifier struct {
	srv *Server
	id  int
	wr  *coreWriter
	pk  *ring.Parker

	// inbox hands freshly-registered sessions to the loop; hasNew makes
	// the empty-inbox check one atomic load per pass.
	inMu   chMutex
	inbox  []*session
	hasNew atomic.Bool

	// sessions is the loop-private scan list.
	sessions []*session

	// tally is the loop-private bookkeeping of the session pass in
	// progress; publish flushes it into the atomics below, the
	// session's and the server-wide series.
	tally passTally

	// fold collects the pass's alarms for the incident stage as
	// records; it is empty between passes.
	fold incident.Folder

	// Per-core telemetry, atomics so CoreStats can read cross-goroutine.
	// Published once per session pass, so they trail the verified
	// stream by at most one pass.
	events      atomic.Uint64
	batches     atomic.Uint64
	alarms      atomic.Uint64
	verifyNs    atomic.Uint64 // cumulative wall time inside verifyBatch
	stalls      atomic.Uint64 // writer-ring-full waits
	sessionsCum atomic.Uint64 // sessions ever pinned here
	ringHW      atomic.Uint64 // max ring occupancy over retired sessions
}

// chMutex is a tiny channel-based mutex; it exists so verifier stays
// copy-vet-clean while holding no sync.Mutex by value.
type chMutex chan struct{}

func newChMutex() chMutex { return make(chMutex, 1) }

func (m chMutex) lock()   { m <- struct{}{} }
func (m chMutex) unlock() { <-m }

// newVerifier wires one verifier/writer pair for core id.
func newVerifier(s *Server, id int) *verifier {
	pk := ring.NewParker()
	v := &verifier{
		srv:  s,
		id:   id,
		pk:   pk,
		inMu: newChMutex(),
		wr: &coreWriter{
			srv:   s,
			id:    id,
			ring:  ring.New[writeOp](s.cfg.AlarmQueue),
			pk:    ring.NewParker(),
			vpk:   pk,
			spans: newSpanRing(s.cfg.TraceRing),
		},
	}
	if s.incidents != nil {
		v.fold = s.incidents.an.NewFolder(foldCap)
	}
	return v
}

// adopt hands a registered session to the verifier's loop. Called from
// handleConn after the HelloAck is on the wire.
func (v *verifier) adopt(ss *session) {
	v.inMu.lock()
	v.inbox = append(v.inbox, ss)
	v.hasNew.Store(true)
	v.inMu.unlock()
	v.sessionsCum.Add(1)
	v.pk.Wake()
}

// anyReady reports whether the loop has work without popping any:
// fresh sessions, a stop request, or a non-empty session ring.
func (v *verifier) anyReady() bool {
	if v.hasNew.Load() || v.srv.stopping.Load() {
		return true
	}
	for _, ss := range v.sessions {
		if ss.ring.Len() > 0 {
			return true
		}
	}
	return false
}

// loop is the per-core verify loop: adopt newcomers, scan owned
// session rings round robin, verify batches, forward control frames,
// finish sessions whose reader is done — and park on the first pass
// that finds nothing to do.
func (v *verifier) loop() {
	defer v.srv.workerWG.Done()
	var tasks [verifyPop]task
	for {
		if v.hasNew.Load() {
			v.inMu.lock()
			v.sessions = append(v.sessions, v.inbox...)
			v.inbox = v.inbox[:0]
			v.hasNew.Store(false)
			v.inMu.unlock()
		}
		worked := false
		for i := 0; i < len(v.sessions); {
			ss := v.sessions[i]
			n := ss.ring.PopSlice(tasks[:])
			finished := false
			if n > 0 {
				// Slots were freed: a reader parked on the full ring
				// can publish again while this core verifies.
				ss.pk.Wake()
				finished = v.pass(ss, tasks[:n])
				worked = true
			}
			if finished {
				last := len(v.sessions) - 1
				v.sessions[i] = v.sessions[last]
				v.sessions[last] = nil
				v.sessions = v.sessions[:last]
			} else {
				i++
			}
		}
		if worked {
			continue
		}
		if v.srv.stopping.Load() && !v.hasNew.Load() && len(v.sessions) == 0 {
			v.send(writeOp{stop: true})
			return
		}
		v.pk.Prepare()
		if v.anyReady() {
			v.pk.Cancel()
		} else {
			v.pk.Park()
		}
	}
}

// passTally is one session pass's verify bookkeeping: what the pass's
// batches add to the per-core, per-session and server-wide counters,
// accumulated in plain fields and published in one go.
type passTally struct {
	events, batches, alarms, verifyNs uint64
	lastStart                         int64 // unix nanos the pass's newest batch started
	ctx                               bool  // the pass made forensic captures
}

// pass runs the tasks one pop took from a session's ring and reports
// whether the session finished. One clock reading starts the pass and
// each batch's end time starts the next, and the batches' bookkeeping
// is tallied and published once, after the last of them — so a pass
// of verifyPop batches pays one publication, not one per batch. The
// newest batch's reply (its alarms and Ack) is held back until that
// publication: a client holding the Ack for everything it sent reads
// telemetry that covers it. The pass's alarms go to the incident stage
// before the publication too, so the barrier in finish covers every
// alarm the session raised. A done task is always the pass's last (the
// reader publishes it strictly last), and the session is sealed only
// after the publication, so its final counters are exact.
func (v *verifier) pass(ss *session, tasks []task) (finished bool) {
	now := nowNs()
	var held *frameBuf
	limited := false
	for j := range tasks {
		t := tasks[j]
		tasks[j] = task{}
		switch {
		case t.b != nil && ss.limited.Load():
			v.srv.discard(t)
		case t.b != nil:
			if held != nil {
				v.send(writeOp{s: ss, fb: held})
			}
			held, now = v.srv.verifyBatch(v, ss, t, now)
			if ss.m.Depth() > vm.MaxCallDepth {
				ss.limited.Store(true)
				limited = true
			}
		case t.fb != nil:
			if held != nil {
				v.send(writeOp{s: ss, fb: held})
				held = nil
			}
			v.send(writeOp{s: ss, fb: t.fb})
		case t.done:
			finished = true
		}
	}
	v.offerRecords(ss)
	v.publish(ss)
	if held != nil {
		v.send(writeOp{s: ss, fb: held})
	}
	if limited {
		v.limit(ss)
	}
	if finished {
		v.finish(ss)
	}
	return finished
}

// limit ends a session whose table stack grew deeper than one VM run
// nests (vm.MaxCallDepth): without the bound, a stream of
// function entries grows the machine's activation stack for as long as
// the client keeps sending. The client is told why, the session's
// later batches are discarded unverified (pass), and the reader is
// stopped; its done task then seals the session as usual — incidents,
// the final Ack for what was verified, Bye. The stack is checked after
// every batch, so it never grows more than one batch past the bound.
func (v *verifier) limit(ss *session) {
	v.srv.met.sessionLimit.Inc()
	v.sendFrame(ss, wire.Error{Code: wire.ErrLimit,
		Msg: fmt.Sprintf("table stack depth %d exceeds the call-depth limit %d", ss.m.Depth(), vm.MaxCallDepth)})
	// A deadline in the past wakes a read blocked on the socket; the
	// reader sees limited and stops.
	ss.conn.SetReadDeadline(time.Unix(1, 0))
}

// publish flushes the pass tally into the per-core counters, the
// session's /debug/sessions telemetry and the server-wide series, and
// resets it. A pass that verified no batch publishes nothing. A pass
// that made forensic captures also refreshes the session's snapshot
// from the newest of them, so /debug/sessions trails by at most one
// pass here as well.
func (v *verifier) publish(ss *session) {
	t := &v.tally
	if t.batches == 0 {
		return
	}
	met := &v.srv.met
	met.eventsTotal.Add(t.events)
	met.batchesTotal.Add(t.batches)
	met.alarmsTotal.Add(t.alarms)
	v.events.Add(t.events)
	v.batches.Add(t.batches)
	v.alarms.Add(t.alarms)
	v.verifyNs.Add(t.verifyNs)
	ss.events.Store(ss.acked)
	ss.batchesN.Add(t.batches)
	total := ss.alarmsN.Add(t.alarms)
	ss.verifyNs.Add(t.verifyNs)
	ss.recTotal.Store(ss.m.RecorderTotal())
	ss.lastBatch.Store(t.lastStart)
	ss.updateRate(t.lastStart, total)
	if c := ss.m.LastContext(); t.ctx && c != nil {
		// CopyInto reuses the snapshot's slices, so the steady state
		// stays allocation-free.
		ss.ctxMu.Lock()
		c.CopyInto(&ss.lastCtx)
		ss.hasCtx = true
		ss.ctxMu.Unlock()
	}
	*t = passTally{}
}

// collect folds one alarm into the pass's incident records, offering
// them when the folder fills.
func (v *verifier) collect(ss *session, a *ipds.Alarm) {
	if v.fold.Add(ss.id, a.Seq, a.PC, a.Func) {
		v.offerRecords(ss)
	}
}

// offerRecords hands the records folded so far to the incident stage and
// empties the folder. Records the queue had no room for are dropped
// (their alarms counted by the stage).
func (v *verifier) offerRecords(ss *session) {
	recs := v.fold.Records()
	if len(recs) == 0 {
		return
	}
	if v.srv.incidents.offer(recs) < len(recs) {
		ss.incidentDrop()
	}
	v.fold.Reset()
}

// offerCtx offers one forensic capture to the incident stage. The
// analyzer keeps only the lowest-Seq context of each (func, branch)
// signal and a session's Seqs only grow, so once one of the session's
// captures for a signal has been accepted — with its alarm ahead of it
// in the queue — every later one would be discarded unread: those are
// skipped here, deep copy and queue slot included. drops is the
// session's drop count when the capture's batch began; a drop since
// then may have cost the capture's alarm, so the capture is not marked.
func (v *verifier) offerCtx(ss *session, c *ipds.AlarmContext, drops uint64) {
	k := ctxMark{pc: c.Alarm.PC, fn: c.Alarm.Func}
	if _, ok := ss.ctxMarks[k]; ok {
		return
	}
	// The capture's alarm goes first: the analyzer drops a context whose
	// signal it has not seen yet.
	v.offerRecords(ss)
	if !v.srv.incidents.offerCtx(c) {
		ss.incidentDrop()
		return
	}
	if ss.incDrops == drops {
		if ss.ctxMarks == nil {
			ss.ctxMarks = map[ctxMark]struct{}{}
		}
		ss.ctxMarks[k] = struct{}{}
	}
}

// send pushes one op into the core's writer ring, parking (counted as
// backpressure) while the writer is behind — the per-core analogue of
// the old per-session alarm-queue stall. The verifier is the ring's
// only producer. A full ring means the writer is awake (every push
// Wakes it, and it re-checks the ring before parking), so the wait
// needs only the writer's Wake after its next pop.
func (v *verifier) send(op writeOp) {
	w := v.wr
	if !w.ring.TryPush(op) {
		v.srv.met.backpressure.Inc()
		v.stalls.Add(1)
		for {
			v.pk.Prepare()
			if w.ring.TryPush(op) {
				v.pk.Cancel()
				break
			}
			v.pk.Park()
		}
	}
	w.pk.Wake()
}

// sendFrame encodes f into a pooled buffer and queues it for the
// session's writer.
func (v *verifier) sendFrame(ss *session, f wire.Frame) {
	fb := v.srv.leaseBuf()
	fb.b = wire.MustAppend(fb.b, f)
	v.send(writeOp{s: ss, fb: fb})
}

// finish seals a session whose reader has stopped. Ring FIFO has
// already guaranteed every batch the session queued was verified, so
// this is purely the closing sequence: the ranked incident fold (a
// draining session is told what its alarm storm meant), the final
// cumulative Ack, Bye, and the writer-side close.
func (v *verifier) finish(ss *session) {
	if hw := uint64(ss.ring.HighWater()); hw > v.ringHW.Load() {
		v.ringHW.Store(hw)
	}
	// The barrier sync inside Server.Incidents guarantees every alarm
	// this session offered has been analyzed: its offers happened on
	// this goroutine before its done task, and the queue is FIFO. The
	// end of a session that alarmed goes behind its last records, so the
	// analyzer frees its dedup filter only once they are in.
	if inc := v.srv.incidents; inc != nil {
		if ss.alarmsN.Load() > 0 {
			inc.endSession(ss.id)
		}
		incs := v.srv.Incidents()
		if len(incs) > maxIncidentFrames {
			incs = incs[:maxIncidentFrames]
		}
		for i := range incs {
			v.sendFrame(ss, incidentFrame(&incs[i]))
		}
	}
	v.sendFrame(ss, wire.Ack{Events: ss.acked})
	v.sendFrame(ss, wire.Bye{})
	v.send(writeOp{s: ss, close: true})
}

// coreWriter owns conn writes for every session pinned to its core,
// fed by an SPSC ring whose only producer is the core's verifier. Ops
// popped in one cycle are coalesced per session — one conn.Write per
// distinct session per cycle, however many frames queued — so
// ack/alarm/incident encoding and the write syscalls never cross
// cores.
type coreWriter struct {
	srv  *Server
	id   int
	ring *ring.SPSC[writeOp]
	pk   *ring.Parker
	vpk  *ring.Parker // the verifier's, woken after every pop

	// spans is the core's committed trace-record ring (/debug/trace).
	// The writer is its only committer: a traced batch's record is
	// finished and stored only once its ack bytes hit the socket. nil
	// when tracing is disabled.
	spans *spanRing
}

// flush writes a session's coalesced buffer. After the first write
// failure the session's output is discarded (never blocks a core on a
// dead peer); pooled buffers were already released at append time.
func (w *coreWriter) flush(ss *session) {
	ss.wdirty = false
	if len(ss.wbuf) == 0 {
		return
	}
	if !ss.wfailed {
		w.srv.met.coalesceBytes.Observe(uint64(len(ss.wbuf)))
		ss.conn.SetWriteDeadline(time.Now().Add(w.srv.cfg.WriteTimeout))
		if _, err := ss.conn.Write(ss.wbuf); err != nil {
			ss.wfailed = true
		} else if len(ss.wspans) > 0 {
			// One clock read stamps every sampled batch this flush acked.
			now := nowNs()
			for _, sp := range ss.wspans {
				w.srv.spanCommit(w, sp, now)
			}
			ss.wspans = ss.wspans[:0]
		}
	}
	if ss.wfailed {
		for _, sp := range ss.wspans {
			w.srv.spanDiscard(sp)
		}
		ss.wspans = ss.wspans[:0]
	}
	ss.wbuf = ss.wbuf[:0]
}

// loop is the per-core write loop: pop a cycle of ops, append each
// frame to its session's write buffer (releasing the pooled encoding
// immediately after the copy — the ownership rule that keeps pooling
// safe), then flush every session the cycle touched. It parks as soon
// as the ring is empty.
func (w *coreWriter) loop() {
	defer w.srv.writerWG.Done()
	var ops [writePop]writeOp
	dirty := make([]*session, 0, writePop)
	for {
		n := w.ring.PopSlice(ops[:])
		if n == 0 {
			w.pk.Prepare()
			if w.ring.Len() > 0 {
				w.pk.Cancel()
			} else {
				w.pk.Park()
			}
			continue
		}
		// The pop freed slots for a verifier parked on a full ring;
		// when it is not parked, Wake costs one atomic load.
		w.vpk.Wake()
		for i := 0; i < n; i++ {
			op := ops[i]
			ops[i] = writeOp{}
			if op.stop {
				// The verifier pushes stop strictly last; nothing can be
				// queued behind it.
				return
			}
			ss := op.s
			if op.fb != nil {
				if !ss.wfailed {
					ss.wbuf = append(ss.wbuf, op.fb.b...)
					if op.fb.sp != nil {
						// Detach the span record from the pooled buffer: it
						// completes (AckNs) when this coalesce cycle flushes.
						ss.wspans = append(ss.wspans, op.fb.sp)
					}
					if !ss.wdirty {
						ss.wdirty = true
						dirty = append(dirty, ss)
					}
				} else if op.fb.sp != nil {
					w.srv.spanDiscard(op.fb.sp)
				}
				op.fb.sp = nil
				w.srv.bufPool.Put(op.fb)
				if len(ss.wbuf) >= maxWriteCoalesce {
					w.flush(ss)
				}
			}
			if op.close {
				w.flush(ss)
				ss.conn.Close()
				ss.wbuf = nil // session is gone; free its write buffer
				w.srv.unregister(ss)
			}
		}
		for _, ss := range dirty {
			if ss.wdirty {
				w.flush(ss)
			}
		}
		dirty = dirty[:0]
	}
}

// CoreStats is one verifier core's slice of the serve work: the
// per-core breakdown behind BENCH_pr6.json and `ipdsload -selfserve`.
// Events/Batches/Alarms are lifetime totals for sessions pinned to
// this core; Parks/Wakes count the verifier's parks, idle or on a
// full writer ring (WriterParks the writer's), and ParkedNs the time
// those parks actually blocked (WriterParkedNs the writer's); Stalls
// counts writer-ring-full waits; RingHighWater is the deepest any
// session ring pinned here ever got.
type CoreStats struct {
	Core           int    `json:"core"`
	Sessions       int    `json:"sessions"`       // live now
	SessionsTotal  uint64 `json:"sessions_total"` // ever pinned
	Events         uint64 `json:"events"`
	Batches        uint64 `json:"batches"`
	Alarms         uint64 `json:"alarms"`
	VerifyNs       uint64 `json:"verify_ns"` // cumulative wall time in verifyBatch
	Parks          uint64 `json:"parks"`
	Wakes          uint64 `json:"wakes"`
	WriterParks    uint64 `json:"writer_parks"`
	ParkedNs       uint64 `json:"parked_ns"`
	WriterParkedNs uint64 `json:"writer_parked_ns"`
	Stalls         uint64 `json:"stalls"`
	RingHighWater  int    `json:"ring_high_water"`
}

// CoreStats snapshots every verifier core. Safe from any goroutine;
// the numbers are racy snapshots of live counters.
func (s *Server) CoreStats() []CoreStats {
	out := make([]CoreStats, len(s.verifiers))
	s.mu.Lock()
	liveHW := make([]uint64, len(s.verifiers))
	liveN := make([]int, len(s.verifiers))
	for _, ss := range s.sessions {
		liveN[ss.core]++
		if hw := uint64(ss.ring.HighWater()); hw > liveHW[ss.core] {
			liveHW[ss.core] = hw
		}
	}
	s.mu.Unlock()
	for i, v := range s.verifiers {
		hw := v.ringHW.Load()
		if liveHW[i] > hw {
			hw = liveHW[i]
		}
		out[i] = CoreStats{
			Core:           i,
			Sessions:       liveN[i],
			SessionsTotal:  v.sessionsCum.Load(),
			Events:         v.events.Load(),
			Batches:        v.batches.Load(),
			Alarms:         v.alarms.Load(),
			VerifyNs:       v.verifyNs.Load(),
			Parks:          v.pk.Parks(),
			Wakes:          v.pk.Wakes(),
			WriterParks:    v.wr.pk.Parks(),
			ParkedNs:       v.pk.ParkedNs(),
			WriterParkedNs: v.wr.pk.ParkedNs(),
			Stalls:         v.stalls.Load(),
			RingHighWater:  int(hw),
		}
	}
	return out
}
