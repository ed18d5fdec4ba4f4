// Package server hosts many concurrent IPDS verifier sessions over
// TCP: the daemon half of the remote-attestation stack (cmd/ipdsd is
// its CLI shell). Each accepted connection opens with a wire.Hello
// naming a table image by content hash; the server resolves the image
// through its ImageStore, dedicates one ipds.Machine to the session,
// and from then on verifies the client's batched branch-event stream,
// pushing wire.Alarm frames back as infeasible paths are detected.
//
// Concurrency model. The serve path is per-core: one verifier loop
// per configured core (default GOMAXPROCS), each paired with its own
// writer loop, connected by single-producer/single-consumer rings
// (internal/ring) so no steady-state queue ever has more than one
// goroutine on either end. A session is pinned to a verifier by a
// consistent hash of its id for its whole life — the verifier is the
// only goroutine that ever touches the session's ipds.Machine, which
// preserves the machine single-owner rule and per-session event order
// while independent sessions verify on independent cores. The
// per-connection reader goroutine only decodes frames — coalescing
// everything one socket read delivered into a single ring publish —
// and the per-core writer owns the outbound side of every session on
// its core, so ack/alarm/incident encoding and write syscalls never
// cross cores. See percore.go for the loop mechanics.
//
// Bounded everything: batch size (wire limits), per-session task
// rings (readers stall when a verifier falls behind — backpressure to
// the socket, counted, never unbounded buffering), and per-core
// writer rings (verifiers stall when clients won't drain their
// alarms, counted as server_backpressure_stalls_total). Sessions
// carry a read deadline, armed before every read that can block, so an
// idle client is evicted with wire.ErrIdle instead of holding a machine
// forever. Verifiers publish their bookkeeping — server-wide counters,
// CoreStats, /debug/sessions — once per pass over a session's ring
// rather than per batch, so live telemetry trails the verified stream
// by at most one pass and is exact once a ring drains. Shutdown drains
// gracefully: already-queued batches are verified and already-queued
// alarms delivered, each session ending in a final Ack and Bye. The
// incident analytics queue remains the system's single
// multi-producer merge point, deliberately off the serve path; each
// verifier feeds it once per pass, with one run of records folding the
// pass's alarms.
package server

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/incident"
	"repro/internal/ipds"
	"repro/internal/obs"
	"repro/internal/ring"
	"repro/internal/wire"
)

// Config parameterises a Server. The zero value of any field selects
// the documented default.
type Config struct {
	// MaxBatch caps the events accepted in one Batch frame (default
	// wire.MaxBatch). Advertised to clients in the HelloAck.
	MaxBatch int

	// ReadTimeout is the session read deadline, armed before every read
	// that can block (not before frames already buffered); a session
	// that sends nothing for this long is evicted (default 60s).
	ReadTimeout time.Duration

	// WriteTimeout bounds each outbound frame write (default 10s). A
	// client that stops draining alarms past the queue and this
	// deadline loses the session rather than wedging a verifier.
	WriteTimeout time.Duration

	// AlarmQueue bounds each core's outbound writer ring (default 256
	// ops, rounded to a power of two). When full, the core's verifier
	// stalls — backpressure, counted — instead of buffering without
	// bound.
	AlarmQueue int

	// Verifiers is the number of per-core verifier/writer loop pairs
	// (default GOMAXPROCS). Sessions are pinned across them by
	// consistent hash of session id.
	Verifiers int

	// RingSize bounds each session's reader→verifier task ring
	// (default 64 tasks, rounded to a power of two). A full ring
	// stalls the session's reader — backpressure to the socket.
	RingSize int

	// IPDS configures each session's machine (zero value, Recorder
	// aside, selects ipds.DefaultConfig, matching in-process runs).
	// IPDS.Recorder sizes each session's flight recorder: 0 selects
	// ipds.DefaultRecorderDepth — forensics are ON by default in the
	// daemon, the recorder being allocation-free on the warm path — and
	// a negative depth disables them. With the recorder enabled, every
	// Alarm frame is followed by a wire.AlarmCtx frame carrying the
	// captured forensic context.
	IPDS ipds.Config

	// DisableIncidents turns off the incident analytics stage. It is ON
	// by default: the stage runs behind a bounded queue off the serve
	// path, so its steady-state cost is folding each alarm into the
	// verifier's records of its pass and, per verifier pass, one copy
	// of those records into the stage's queue under one lock. The queue
	// holds nothing until the first alarm.
	DisableIncidents bool

	// IncidentQueue bounds the analytics feed queue, in records and
	// forensic contexts (default DefaultIncidentQueue); a record holds
	// one session's alarms at one signal in one bucket. When full,
	// observations are dropped from analysis — their alarms counted as
	// incident_queue_dropped_total — never stalling a verifier.
	IncidentQueue int

	// Incident configures the analyzer (zero value selects the
	// incident package defaults).
	Incident incident.Config

	// TraceRing is the per-core capacity of the committed span-record
	// ring behind /debug/trace (default 256; negative disables it, and
	// stamped batches are then sampled like unstamped ones). Only
	// batches a client stamped with the wire trace extension are kept
	// there. The span records the daemon leases for 1 batch in 64 on
	// its own feed only the wait histograms, whatever this is set to;
	// they come from a pool, so unstamped traffic allocates nothing.
	TraceRing int

	// Reg receives server_* metrics; nil disables (free).
	Reg *obs.Registry

	// Tracer records per-session serve spans; nil disables (free).
	Tracer *obs.Tracer
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 || c.MaxBatch > wire.MaxBatch {
		c.MaxBatch = wire.MaxBatch
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 60 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.AlarmQueue <= 0 {
		c.AlarmQueue = 256
	}
	if c.Verifiers <= 0 {
		c.Verifiers = runtime.GOMAXPROCS(0)
	}
	if c.RingSize <= 0 {
		c.RingSize = 64
	}
	switch {
	case c.TraceRing == 0:
		c.TraceRing = 256
	case c.TraceRing < 0:
		c.TraceRing = 0
	}
	rec := c.IPDS.Recorder
	c.IPDS.Recorder = 0
	if c.IPDS == (ipds.Config{}) {
		c.IPDS = ipds.DefaultConfig
	}
	switch {
	case rec == 0:
		c.IPDS.Recorder = ipds.DefaultRecorderDepth
	case rec > 0:
		c.IPDS.Recorder = rec
	}
	return c
}

// task is one entry in a session's reader→verifier ring. Exactly one
// of b, fb or done is set:
//
//   - b: a decoded batch. Pool-owned — the reader leases it from
//     Server.batchPool, ownership rides the ring, the verifier returns
//     it once OnBatch has consumed the events.
//   - fb: a reader-originated control frame (eviction or protocol
//     error) the verifier forwards to the core writer — readers never
//     touch a writer ring themselves, which keeps it SPSC.
//   - done: the reader's final task. Ring FIFO guarantees the verifier
//     sees it strictly after every batch the session ever queued, so
//     "done observed" IS the drain barrier — no pending counters.
type task struct {
	b    *wire.Batch
	fb   *frameBuf
	done bool
	// sp is non-nil on sampled batches — client-trace-stamped ones and
	// every spanSampleEvery-th batch of a session: the pooled span
	// record the stages fill in as the batch moves through them (see
	// trace.go). Ownership rides the ring with the batch; the core
	// writer commits and releases it at ack-flush time.
	sp *SpanRec
}

// frameBuf is one pooled outbound encoding: one frame, or several
// concatenated frames (a batch's alarms and its ack travel as one
// buffer — the stream is self-delimiting, so receivers cannot tell the
// difference, and the verifier pays one ring operation per batch
// instead of one per alarm). Ownership rule: the encoder leases it, the
// core writer is the only party that may release it, and only once it
// is done with the bytes — after copying them into the session's
// coalesced write buffer (or discarding them) — never while the frame
// is still queued, or a reuse would corrupt bytes in flight.
type frameBuf struct {
	b []byte
	// sp continues a sampled batch's span record into the writer:
	// non-nil only when the buffer carries such a batch's alarms+ack.
	// The writer detaches it on append (into session.wspans) and the
	// flush that puts the bytes on the wire commits it.
	sp *SpanRec
}

// Server hosts verifier sessions. Create with New, feed with Serve (or
// ListenAndServe), stop with Shutdown — which must be called exactly
// once to release the per-core loops.
type Server struct {
	cfg   Config
	store *ImageStore
	met   metrics

	// batchPool recycles decoded event batches between the per-conn
	// readers and the verifiers; bufPool recycles outbound frame
	// encodings between verifiers/readers and the per-core writers.
	// Together they make the steady-state serve loop allocation-free
	// per event.
	batchPool sync.Pool
	bufPool   sync.Pool

	// spanPool recycles span records (trace.go); leased by the reader
	// for sampled batches only, released by the core writer.
	spanPool sync.Pool

	// incidents is the off-path analytics stage (nil when disabled):
	// verifiers offer runs of alarm records and forensic captures to its
	// bounded queue and a dedicated goroutine folds them into ranked
	// incidents.
	incidents *incidentStage

	// verifiers are the per-core loops; each owns a writer. stopping
	// flips once all readers have drained, telling verifiers to finish
	// their remaining sessions and exit.
	verifiers []*verifier
	stopping  atomic.Bool

	workerWG sync.WaitGroup
	readerWG sync.WaitGroup
	writerWG sync.WaitGroup

	draining atomic.Bool

	mu       sync.Mutex
	ln       net.Listener
	sessions map[uint64]*session
	nextID   uint64
}

// New creates a server over an image store. The per-core loops start
// immediately; Shutdown stops them.
func New(store *ImageStore, cfg Config) *Server {
	s := &Server{
		cfg:      cfg.withDefaults(),
		store:    store,
		sessions: map[uint64]*session{},
	}
	s.batchPool.New = func() any { return &wire.Batch{} }
	s.bufPool.New = func() any { return &frameBuf{} }
	s.spanPool.New = func() any { return &SpanRec{} }
	s.met = newMetrics(s.cfg.Reg)
	if !s.cfg.DisableIncidents {
		s.incidents = newIncidentStage(s.cfg.Incident, s.cfg.IncidentQueue, s.cfg.Reg)
	}
	s.verifiers = make([]*verifier, s.cfg.Verifiers)
	for i := range s.verifiers {
		v := newVerifier(s, i)
		s.verifiers[i] = v
		s.workerWG.Add(1)
		go v.loop()
		s.writerWG.Add(1)
		go v.wr.loop()
	}
	return s
}

// Serve accepts connections on ln until Shutdown closes it. It returns
// nil after a clean shutdown, or the accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("server: already shut down")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		go s.handleConn(conn)
	}
}

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Addr returns the bound listen address ("" before Serve).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// ActiveSessions reports the live session count.
func (s *Server) ActiveSessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// Shutdown drains the server: stop accepting, wake every session
// reader, verify everything already queued, deliver every queued alarm
// (final Ack + Bye per session), then stop the per-core loops. It
// returns nil on a full drain or ctx.Err() if the context expired
// first (remaining connections are then closed hard).
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining.Swap(true)
	ln := s.ln
	live := make([]*session, 0, len(s.sessions))
	for _, ss := range s.sessions {
		live = append(live, ss)
	}
	s.mu.Unlock()
	if already {
		return fmt.Errorf("server: Shutdown called twice")
	}
	if ln != nil {
		ln.Close()
	}
	// Wake blocked readers; in-flight reads fail immediately with a
	// timeout, and the draining flag turns that into a graceful stop.
	for _, ss := range live {
		ss.conn.SetReadDeadline(time.Now().Add(-time.Second))
	}

	done := make(chan struct{})
	go func() {
		// Drain order: once every reader has exited, every session's done
		// task is in its ring, so telling the verifiers to stop lets each
		// finish its remaining sessions (FIFO guarantees the batches come
		// first) and push its writer's stop op last.
		s.readerWG.Wait()
		s.stopping.Store(true)
		for _, v := range s.verifiers {
			v.pk.Wake()
		}
		s.workerWG.Wait()
		s.writerWG.Wait()
		// Every producer into the incident queue lives inside the loops
		// above; with them drained the stage can close and flush.
		if s.incidents != nil {
			s.incidents.close()
		}
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for _, ss := range s.sessions {
			ss.conn.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// register adds a session under a fresh id, refusing during drain. The
// session's ring and verifier pin are established here, before any
// frame can flow. Its reader joins readerWG here too, under s.mu, so
// the Add happens-before Shutdown sets draining and its Wait cannot
// miss a session that registered; the caller owes a Done (readLoop's,
// or its own if the handshake fails).
func (s *Server) register(ss *session) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Load() {
		return false
	}
	s.readerWG.Add(1)
	s.nextID++
	ss.id = s.nextID
	ss.v = s.pinVerifier(ss.id)
	ss.core = ss.v.id
	ss.ring = ring.New[task](s.cfg.RingSize)
	ss.pk = ring.NewParker()
	s.sessions[ss.id] = ss
	s.met.sessionsTotal.Inc()
	s.met.sessionsActive.Set(int64(len(s.sessions)))
	return true
}

// unregister removes a finished session and absorbs its machine's
// counters into the server-wide series.
func (s *Server) unregister(ss *session) {
	s.mu.Lock()
	delete(s.sessions, ss.id)
	s.met.sessionsActive.Set(int64(len(s.sessions)))
	s.mu.Unlock()
	s.met.absorb(ss.m.Stats())
	if ss.stopSpan != nil {
		ss.stopSpan()
	}
}

// refuse answers a connection that never became a session: one error
// frame, best effort, then close.
func (s *Server) refuse(conn net.Conn, code wire.ErrCode, msg string) {
	s.met.errorsTotal.Inc()
	if len(msg) > wire.MaxString {
		msg = msg[:wire.MaxString]
	}
	b := wire.MustAppend(nil, wire.Error{Code: code, Msg: msg})
	conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	conn.Write(b)
	conn.Close()
}

// handleConn performs the hello handshake and promotes the connection
// into a session.
func (s *Server) handleConn(conn net.Conn) {
	if s.draining.Load() {
		s.refuse(conn, wire.ErrDraining, "server draining")
		return
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
	rd := wire.NewReader(conn)
	f, err := rd.Next()
	if err != nil {
		s.met.errorsTotal.Inc()
		conn.Close()
		return
	}
	hello, ok := f.(wire.Hello)
	if !ok {
		s.refuse(conn, wire.ErrProtocol, fmt.Sprintf("expected hello, got %v", f.Type()))
		return
	}
	if hello.Version != wire.Version {
		s.refuse(conn, wire.ErrBadVersion, fmt.Sprintf("server speaks version %d", wire.Version))
		return
	}
	img, ok := s.store.Resolve(hello.Image)
	if !ok {
		s.refuse(conn, wire.ErrUnknownImage, fmt.Sprintf("no table image %x", hello.Image[:8]))
		return
	}

	ss := &session{
		srv:       s,
		conn:      conn,
		rd:        rd,
		m:         ipds.New(img, s.cfg.IPDS),
		program:   hello.Program,
		forensics: s.cfg.IPDS.Recorder > 0,
		started:   time.Now(),
	}
	if !s.register(ss) {
		s.refuse(conn, wire.ErrDraining, "server draining")
		return
	}
	ss.stopSpan = s.cfg.Tracer.Span(obs.Name("serve/session", "program", ss.program))

	ack := wire.MustAppend(nil, wire.HelloAck{Version: wire.Version, MaxBatch: uint32(s.cfg.MaxBatch)})
	conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	if _, err := conn.Write(ack); err != nil {
		// The session was never adopted by its verifier; unwind by hand.
		conn.Close()
		s.unregister(ss)
		s.readerWG.Done()
		return
	}

	// Adopt before the reader starts so the first published task always
	// finds the verifier scanning (or parkable-and-wakeable).
	ss.v.adopt(ss)
	go ss.readLoop()
}

// discard releases a batch that a limited session (verifier.limit)
// sent after its bound was hit: it is never verified or acked.
func (s *Server) discard(t task) {
	if t.sp != nil {
		s.spanDiscard(t.sp)
	}
	s.batchPool.Put(t.b)
}

// verifyBatch feeds one batch through the session's machine via the
// zero-allocation OnBatch kernel, encodes the raised alarms and the
// batch's Ack into one pooled buffer, folds the alarms into the
// verifier's incident records, tallies the batch into the verifier's pass
// tally, and returns the batch to the pool. start is
// the unix-nanos time the batch's verification began; it returns the
// buffer, for the caller to send, and the time verification ended,
// which starts the next batch of the pass. Runs on the session's pinned
// verifier — the machine's only driver.
func (s *Server) verifyBatch(v *verifier, ss *session, t task, start int64) (*frameBuf, int64) {
	n := len(t.b.Events)
	if t.sp != nil {
		t.sp.DequeueNs = start
	}
	// The returned alarm slice is machine-owned and valid until the
	// machine's next batch; this verifier is the machine's only driver,
	// so encoding the alarms here, before releasing the batch, is safe.
	alarms := ss.m.OnBatch(t.b.Events)
	if t.sp != nil {
		t.sp.VerifyEndNs = nowNs()
		t.sp.Events = n
		t.sp.Alarms = len(alarms)
	}
	// The batch's alarms and its ack ride one pooled buffer: one ring
	// operation and (after writer coalescing) one socket write per
	// batch, however many alarms it raised.
	fb := s.leaseBuf()
	inc := s.incidents
	drops := ss.incDrops
	for i := range alarms {
		var err error
		if fb.b, err = wire.AppendAlarm(fb.b, alarmFrame(&alarms[i])); err != nil {
			panic(err) // alarmFrame clamps Func; unreachable absent a bug
		}
		if inc != nil {
			v.collect(ss, &alarms[i])
		}
	}
	// Emission is capture-driven: each context the machine snapshotted
	// during this batch (alarms past the storm throttle) goes out once,
	// after the batch's alarm frames, paired to its alarm by Seq. A
	// batch whose alarms were all throttled costs one counter compare.
	if ss.forensics {
		if tot := ss.m.CtxCaptured(); tot != ss.ctxSeen {
			fresh := int(tot - ss.ctxSeen)
			ss.ctxSeen = tot
			v.tally.ctx = true
			// The context ring is shallow: in a pathological burst the
			// oldest captures of this batch may already be overwritten
			// before emission. Counted, never silent.
			if n := ss.m.ContextCount(); fresh > n {
				s.met.ctxDropped.Add(uint64(fresh - n))
				fresh = n
			}
			for i := ss.m.ContextCount() - fresh; i < ss.m.ContextCount(); i++ {
				c := ss.m.ContextAt(i)
				var ok bool
				fb.b, ok = appendAlarmCtx(fb.b, c)
				if ok {
					s.met.ctxTotal.Inc()
				} else {
					s.met.ctxDropped.Inc()
				}
				if inc != nil {
					v.offerCtx(ss, c, drops)
				}
			}
		}
	}
	s.batchPool.Put(t.b)
	// The Ack's value is the verifier-owned running total; the session's
	// published copy catches up when the pass publishes.
	ss.acked += uint64(n)
	fb.b = wire.AppendAck(fb.b, wire.Ack{Events: ss.acked})
	end := max(nowNs(), start) // a wall-clock step back must not wrap spent
	spent := uint64(end - start)
	s.met.verifyNs.Observe(spent)
	s.met.batchLen.Observe(uint64(n))
	tl := &v.tally
	tl.events += uint64(n)
	tl.batches++
	tl.alarms += uint64(len(alarms))
	tl.verifyNs += spent
	tl.lastStart = start
	if t.sp != nil {
		// Incident collection + forensics emission + ack encode are
		// done; the record rides the frame buffer to the core writer,
		// which stamps AckNs and commits once the coalesced write lands.
		t.sp.OfferEndNs = end
		fb.sp = t.sp
	}
	return fb, end
}

// leaseBuf leases an empty outbound frame buffer. The core writer, its
// only releaser, clears sp before the Put, so only b needs resetting.
func (s *Server) leaseBuf() *frameBuf {
	fb := s.bufPool.Get().(*frameBuf)
	fb.b = fb.b[:0]
	return fb
}

// alarmFrame converts a machine alarm to its wire form.
func alarmFrame(a *ipds.Alarm) wire.Alarm {
	fn := a.Func
	if len(fn) > wire.MaxString {
		fn = fn[:wire.MaxString]
	}
	return wire.Alarm{
		Seq:      a.Seq,
		PC:       a.PC,
		Func:     fn,
		Slot:     uint32(a.Slot),
		Expected: uint8(a.Expected),
		Taken:    a.Taken,
	}
}
