// Package server hosts many concurrent IPDS verifier sessions over
// TCP: the daemon half of the remote-attestation stack (cmd/ipdsd is
// its CLI shell). Each accepted connection opens with a wire.Hello
// naming a table image by content hash; the server resolves the image
// through its ImageStore, dedicates one ipds.Machine to the session,
// and from then on verifies the client's batched branch-event stream,
// pushing wire.Alarm frames back as infeasible paths are detected.
//
// Concurrency model. One goroutine per session is the whole serve
// path (session.serve): it decodes each Batch frame into the session's
// one wire.Batch, runs the machine's OnBatch kernel on it, encodes the
// alarms, forensic contexts and the Ack straight into the session's
// write buffer, and writes that buffer with one conn.Write once the
// frames the socket delivered are used up. The goroutine is the machine's
// only driver for the session's whole life, which preserves the
// single-owner rule and per-session event order; Go's scheduler spreads
// sessions across Ps, so independent sessions verify on independent
// cores with no queue between reading and verifying.
//
// Bounded everything: batch size (wire limits), one decoded batch and
// one write buffer per session (a client that sends faster than its
// session verifies waits on its own socket: the kernel's receive
// buffer, sized by sessionReadBuffer, is the only read-ahead), and a
// write deadline on every reply write (a client that stops reading its
// replies loses its session without delaying anyone else's). Sessions
// carry a read deadline, armed before every read that can block, so an
// idle client is evicted with wire.ErrIdle instead of holding a machine
// forever. A session publishes its bookkeeping — server-wide counters,
// CoreStats, /debug/sessions — once per pass, the run of frames the
// socket delivered, just before the pass's replies are written, so
// live telemetry is exact for every Ack a client has read. Shutdown
// drains gracefully: frames a client had in flight are verified and
// their alarms delivered, each session ending in a final Ack and Bye.
// Each session feeds the incident analyzer itself, under the
// analyzer's lock, once per pass, with one run of records folding the
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

	// WriteTimeout bounds each reply write (default 10s). A client that
	// stops reading its replies for longer loses its session; only that
	// session's goroutine ever waits on it.
	WriteTimeout time.Duration

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
	// by default: its steady-state cost on the serve path is folding
	// each alarm into the session's records of its pass (one per
	// signal and bucket) and, per pass, feeding those records to the
	// analyzer under its lock, plus one analyzer call per fresh
	// forensic capture. A session that never alarms feeds nothing.
	DisableIncidents bool

	// Incident configures the analyzer (zero value selects the
	// incident package defaults).
	Incident incident.Config

	// TraceRing is the capacity of each CoreStats row's committed
	// span-record ring behind /debug/trace (default 256; negative
	// disables it, and stamped batches are then sampled like unstamped
	// ones). Only batches a client stamped with the wire trace extension
	// are kept there. The span records the daemon takes for 1 batch in
	// 64 on its own feed only the wait histograms, whatever this is set
	// to; they are values in the session, so unstamped traffic
	// allocates nothing.
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

// sessionReadBuffer is the kernel receive buffer each accepted TCP
// session asks for (SO_RCVBUF; Linux caps it at net.core.rmem_max). A
// session reads only as fast as it verifies, so the socket is its only
// read-ahead: with the autotuned default a sender streaming faster than
// one batch's verification stalls on a full window between reads.
const sessionReadBuffer = 4 << 20

// Server hosts verifier sessions. Create with New, feed with Serve (or
// ListenAndServe), stop with Shutdown.
type Server struct {
	cfg   Config
	store *ImageStore
	met   metrics

	// incidents is the analytics stage (nil when disabled): sessions
	// feed it runs of alarm records and forensic captures, and it folds
	// them into ranked incidents.
	incidents *incident.Analyzer

	// rows are the CoreStats rows, one per P at New: each session's
	// counters and committed span records are summed into the row its
	// id picks.
	rows []*coreRow

	// sessionWG counts live session goroutines; Shutdown waits on it.
	sessionWG sync.WaitGroup

	draining atomic.Bool

	mu       sync.Mutex
	ln       net.Listener
	sessions map[uint64]*session
	nextID   uint64
}

// New creates a server over an image store. Shutdown stops it.
func New(store *ImageStore, cfg Config) *Server {
	s := &Server{
		cfg:      cfg.withDefaults(),
		store:    store,
		sessions: map[uint64]*session{},
	}
	s.met = newMetrics(s.cfg.Reg)
	if !s.cfg.DisableIncidents {
		ic := s.cfg.Incident
		ic.Reg = s.cfg.Reg
		s.incidents = incident.NewAnalyzer(ic)
	}
	s.rows = make([]*coreRow, runtime.GOMAXPROCS(0))
	for i := range s.rows {
		s.rows[i] = &coreRow{spans: newSpanRing(s.cfg.TraceRing)}
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

// Shutdown drains the server: stop accepting, wake every session,
// verify what each client already had in flight and deliver its
// replies (final Ack + Bye per session).
// It returns nil on a full drain or ctx.Err() if the context expired
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
	// Wake blocked reads; they fail immediately with a timeout, and the
	// draining flag turns that into a graceful stop.
	for _, ss := range live {
		ss.conn.SetReadDeadline(time.Now().Add(-time.Second))
	}

	done := make(chan struct{})
	go func() {
		s.sessionWG.Wait()
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
// session joins sessionWG here, under s.mu, so the Add happens-before
// Shutdown sets draining and its Wait cannot miss a session that
// registered; the caller owes a Done (serve's, or its own if the
// handshake fails).
func (s *Server) register(ss *session) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Load() {
		return false
	}
	s.sessionWG.Add(1)
	s.nextID++
	ss.id = s.nextID
	ss.core = int(ss.id % uint64(len(s.rows)))
	ss.row = s.rows[ss.core]
	ss.row.sessions.Add(1)
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

// handleConn performs the hello handshake and, once the connection is
// a session, becomes its serve loop.
func (s *Server) handleConn(conn net.Conn) {
	if s.draining.Load() {
		s.refuse(conn, wire.ErrDraining, "server draining")
		return
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
		tc.SetReadBuffer(sessionReadBuffer)
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

	ss := s.newSession(conn, rd, ipds.New(img, s.cfg.IPDS), hello.Program)
	if !s.register(ss) {
		s.refuse(conn, wire.ErrDraining, "server draining")
		return
	}
	ss.stopSpan = s.cfg.Tracer.Span(obs.Name("serve/session", "program", ss.program))

	ack := wire.MustAppend(nil, wire.HelloAck{Version: wire.Version, MaxBatch: uint32(s.cfg.MaxBatch)})
	conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	if _, err := conn.Write(ack); err != nil {
		conn.Close()
		s.unregister(ss)
		s.sessionWG.Done()
		return
	}
	defer s.sessionWG.Done()
	ss.serve()
	ss.finish()
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
