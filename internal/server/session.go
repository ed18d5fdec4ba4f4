package server

import (
	"errors"
	"math"
	"math/bits"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ipds"
	"repro/internal/ring"
	"repro/internal/wire"
)

// session is one live verifier connection. Field ownership:
//
//   - rd and conn reads: the reader goroutine (readLoop), the ring's
//     only producer
//   - m (the machine) and the rate-window fields: the pinned per-core
//     verifier, exclusively — the ring's only consumer
//   - wbuf/wdirty/wfailed/wspans and conn writes: the core writer
//     goroutine, exclusively
//   - the remaining counters are atomics, written by their owner and
//     read by the debug endpoint
//
// Lifecycle rides the ring: the reader's last task is done-marked, so
// the verifier observes it strictly after every batch the session
// queued (ring FIFO), seals the session with incidents + final Ack +
// Bye, and hands the close to the writer — which flushes everything
// queued ahead of it before retiring the connection. No pending
// counters, no lifecycle mutex.
type session struct {
	id        uint64
	core      int
	srv       *Server
	conn      net.Conn
	rd        *wire.Reader
	m         *ipds.Machine
	ring      *ring.SPSC[task]
	pk        *ring.Parker // the reader parks here on a full ring
	v         *verifier
	program   string
	forensics bool // the machine records; emit AlarmCtx after each Alarm
	started   time.Time
	stopSpan  func()

	// sampleCnt is reader-owned: it picks every spanSampleEvery-th
	// batch to carry a span record.
	sampleCnt uint64

	// limited is set by the verifier when the session exceeds a
	// per-session bound (verifier.limit): the verifier discards its
	// later batches and the reader stops.
	limited atomic.Bool

	// acked counts fully verified events — the ack currency every Ack
	// frame carries. Verifier-owned plain field.
	acked uint64

	// events is acked's published copy for the debug endpoint.
	events atomic.Uint64

	// Telemetry for /debug/sessions: verifier-written, handler-read.
	// The verifier publishes these and events once per pass (see
	// verifier.pass): they trail the verified stream by at most one
	// pass and are exact once the session's ring is drained.
	batchesN  atomic.Uint64
	alarmsN   atomic.Uint64
	recTotal  atomic.Uint64
	verifyNs  atomic.Uint64 // cumulative wall time inside verifyBatch
	lastBatch atomic.Int64  // unix nanos the last published batch started

	// Windowed alarm rate: the verifier closes ≥1s windows over its own
	// plain fields (the pinned core owns a session's batches, so no
	// races) and publishes the last closed window's rate for the debug
	// handler.
	rateWinStart int64         // unix nanos of the open window's start
	rateWinBase  uint64        // lifetime alarms at the window's start
	rateMilli    atomic.Uint64 // 1 + milli-alarms/s of the last closed window; 0 = none yet

	// lastCtx is the session's most recent forensic capture, deep-copied
	// out of the machine so the debug endpoint never touches machine
	// state owned by the verifier.
	ctxMu   sync.Mutex
	hasCtx  bool
	lastCtx ipds.AlarmContext

	// ctxSeen is the verifier-owned high-water mark of the machine's
	// lifetime capture count; fresh captures past it are emitted once.
	ctxSeen uint64

	// ctxMarks holds the (func, branch) signals whose forensic context
	// the incident stage has accepted from this session; later captures
	// of a marked signal are not offered (verifier.offerCtx). incDrops
	// counts the session's incident-queue drops, each of which clears
	// the marks. Verifier-owned; the set is bounded by the image's
	// branch count.
	ctxMarks map[ctxMark]struct{}
	incDrops uint64

	// Core-writer-owned coalescing state: frames queued for this
	// session in the current write cycle accumulate in wbuf and go out
	// as one conn.Write. wfailed latches the first write error; output
	// is discarded from then on so a dead peer never blocks a core.
	wbuf    []byte
	wdirty  bool
	wfailed bool

	// wspans holds the span records of this cycle's coalesced sampled
	// batches: detached from their frame buffers at append time,
	// committed (ack stamp) when the cycle's single write lands.
	wspans []*SpanRec
}

// ctxMark names one (func, branch) alarm signal in session.ctxMarks.
type ctxMark struct {
	pc uint64
	fn string
}

// incidentDrop records that some of the session's alarms or contexts
// were dropped from the incident queue, and clears the session's
// context marks. That is conservative — a capture accepted behind its
// alarm stays the signal's lowest-Seq one through any later drop — but
// a cleared mark costs only one more offer, and no mark can rest on an
// alarm the analyzer did not see.
func (s *session) incidentDrop() {
	clear(s.ctxMarks)
	s.incDrops++
}

// isClosedErr reports a read failing because the connection was closed
// locally (forced shutdown), which is not a client protocol error.
func isClosedErr(err error) bool {
	return errors.Is(err, net.ErrClosed)
}

// readStage bounds how many decoded frames the reader accumulates
// before publishing them to the session's ring in one operation. One
// socket read often delivers several batch frames (the client pipelines
// them); staging turns those into a single ring publish and at most one
// verifier wakeup instead of one each.
const readStage = 16

// publish pushes the staged tasks into the session's ring, parking
// (counted as backpressure, once per stall) while the pinned verifier
// is behind, and wakes the verifier. The reader is the ring's only
// producer and s.pk's only sleeper; the verifier Wakes s.pk after
// every pop that takes items.
func (s *session) publish(staged []task) {
	if len(staged) == 0 {
		return
	}
	s.srv.met.readFrames.Observe(uint64(len(staged)))
	off, stalled := 0, false
	for off < len(staged) {
		n := s.ring.PushSlice(staged[off:])
		if n > 0 {
			off += n
			s.v.pk.Wake()
			continue
		}
		if !stalled {
			stalled = true
			s.srv.met.backpressure.Inc()
		}
		// The ring is full, so the verifier has been woken and will pop.
		s.pk.Prepare()
		if s.ring.Len() < s.ring.Cap() {
			s.pk.Cancel()
		} else {
			s.pk.Park()
		}
	}
	s.srv.met.ringDepth.Observe(uint64(s.ring.Len()))
}

// stageCtrl encodes a reader-originated frame (eviction or protocol
// error) into a pooled buffer and stages it as a control task: the
// verifier forwards it to the core writer, keeping the writer ring
// single-producer.
func (s *session) stageCtrl(staged []task, f wire.Frame) []task {
	fb := s.srv.leaseBuf()
	fb.b = wire.MustAppend(fb.b, f)
	return append(staged, task{fb: fb})
}

// updateRate advances the session's alarm-rate window: called by the
// owning verifier when it publishes a pass, with the start time of the
// pass's newest batch and the session's lifetime alarm total; windows
// at least one second wide are closed into the published rate.
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

// drainGrace is the per-read deadline a draining session reads with:
// long enough to pick up everything a client already had in flight on
// loopback or a LAN, short enough that shutdown stays prompt. A client
// that keeps streaming past the drain is bounded by the Shutdown
// context, which closes connections hard on expiry.
const drainGrace = 50 * time.Millisecond

// readLoop drains the socket: decode frames, stage them, publish the
// stage to the session's ring whenever the socket has no more buffered
// bytes (everything one syscall delivered becomes one ring publish) or
// the stage is full. Stops on Bye / error / idle deadline, always
// ending with a done-marked task — the FIFO drain barrier. The read
// deadline is armed only before a read that can block: when the next
// frame is not wholly buffered (wire.Reader.FrameBuffered), so every
// read that can wait on the socket starts a fresh ReadTimeout while a
// run of frames one fill delivered costs no deadline syscalls. During
// server drain the loop keeps reading under drainGrace deadlines,
// re-armed before every frame, until the socket goes quiet, so events
// the client sent before the shutdown began are still verified
// (wire.Reader resumes cleanly across the shutdown's deadline poke).
func (s *session) readLoop() {
	defer s.srv.readerWG.Done()
	srv := s.srv
	staged := make([]task, 0, readStage)
	// One leased batch at a time: NextInto decodes into it without
	// allocating; staging a task transfers ownership to the verifier
	// (which returns it to the pool), non-batch frames leave the lease
	// in hand for the next frame.
	b := srv.batchPool.Get().(*wire.Batch)
	notified := false
	for !s.limited.Load() {
		graced := srv.draining.Load()
		if graced && !notified {
			// Advisory drain notice, staged once through the verifier so
			// the writer ring stays single-producer: a fleet-aware client
			// finishes its current pass, drains cleanly and redials — the
			// router places it on another node. Plain clients ignore it
			// (an Error frame is informational until the close).
			notified = true
			staged = s.stageCtrl(staged, wire.Error{Code: wire.ErrDraining, Msg: "server draining; drain and redial"})
			s.publish(staged)
			staged = staged[:0]
		}
		if graced {
			s.conn.SetReadDeadline(time.Now().Add(drainGrace))
		} else if !s.rd.FrameBuffered() {
			s.conn.SetReadDeadline(time.Now().Add(srv.cfg.ReadTimeout))
			if srv.draining.Load() || s.limited.Load() {
				// Shutdown's or limit's deadline poke may have landed
				// before this deadline replaced it: go around (under the
				// grace deadline, or to stop) instead of blocking for a
				// full ReadTimeout.
				continue
			}
		}
		f, err := s.rd.NextInto(b)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				if s.limited.Load() {
					break // verifier.limit's poke: the Error is already queued
				}
				if srv.draining.Load() {
					if graced {
						// Quiet under a grace deadline: fully drained.
						break
					}
					// The shutdown poke interrupted a blocked read; go
					// around once more to sweep buffered frames.
					continue
				}
				// Idle eviction: tell the client why, then drain.
				srv.met.evictionsTotal.Inc()
				staged = s.stageCtrl(staged, wire.Error{Code: wire.ErrIdle, Msg: "idle deadline exceeded"})
			} else if err != nil && !isClosedErr(err) {
				// Hard protocol garbage or a vanished peer; io.EOF is
				// the silent variant of Bye.
				srv.met.errorsTotal.Inc()
			}
			break
		}
		switch fr := f.(type) {
		case *wire.Batch:
			if len(fr.Events) > srv.cfg.MaxBatch {
				srv.met.errorsTotal.Inc()
				staged = s.stageCtrl(staged, wire.Error{Code: wire.ErrProtocol, Msg: "batch exceeds advertised maximum"})
				goto out
			}
			staged = append(staged, task{b: fr, sp: s.sample(fr)})
			// Publish when the socket buffer is dry — the next NextInto
			// would block — or the stage is full. (A frame split across
			// TCP segments can briefly block with tasks staged; its tail
			// is already in flight, so the stall is one segment's RTT.)
			if len(staged) == readStage || s.rd.Buffered() == 0 {
				s.publish(staged)
				staged = staged[:0]
			}
			b = srv.batchPool.Get().(*wire.Batch)
		case wire.Bye:
			goto out
		default:
			srv.met.errorsTotal.Inc()
			staged = s.stageCtrl(staged, wire.Error{Code: wire.ErrProtocol, Msg: "unexpected " + fr.Type().String() + " frame"})
			goto out
		}
	}
out:
	srv.batchPool.Put(b)
	// The done task is published strictly last: the verifier sees every
	// staged batch and control frame first, then seals the session.
	staged = append(staged, task{done: true})
	s.publish(staged)
}

// sample leases the span record a just-read batch carries through the
// pipeline, or returns nil. A client-stamped batch and every
// spanSampleEvery-th batch of the session are sampled: the record's
// stamps feed the wait histograms, and a stamped one is also kept for
// /debug/trace. Reader-owned, like sampleCnt.
func (s *session) sample(fr *wire.Batch) *SpanRec {
	traced := fr.TraceID != 0 && s.srv.cfg.TraceRing > 0
	n := s.sampleCnt
	s.sampleCnt++
	if !traced && n%spanSampleEvery != 0 {
		return nil
	}
	sp := s.srv.spanPool.Get().(*SpanRec)
	*sp = SpanRec{Session: s.id, Core: s.core, ReadNs: nowNs()}
	if traced {
		sp.TraceID = fr.TraceID
		sp.OriginNs = int64(fr.OriginNs)
	}
	return sp
}

// maxWriteCoalesce bounds a session's merged write buffer: big enough
// to swallow a burst of per-batch alarm+ack buffers in one syscall,
// small enough to keep write latency and memory per session bounded.
const maxWriteCoalesce = 256 << 10

// spanSampleEvery picks which unstamped batches carry a span record
// (reader publish → verifier pop → writer flush) for the wait
// histograms. 1-in-64 keeps them live on any sustained stream while
// the extra clock reads stay invisible next to the verify kernel.
const spanSampleEvery = 64
