// Package ipdsclient is the client half of the remote-attestation
// stack: it connects a branch-event stream to an ipdsd verification
// daemon (internal/server) over the internal/wire protocol. The
// package also carries the trace tooling the daemon's tests and the
// load generator share — capturing a program's event trace from a VM
// run, tampering a trace the way a memory-corruption attack bends
// control flow, replaying a trace against an in-process machine for a
// reference alarm set, and a multi-session load generator.
package ipdsclient

import (
	"encoding/binary"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// Config parameterises a client connection.
type Config struct {
	// Addr is the daemon's TCP address.
	Addr string

	// Image is the content hash (tables.Image.Hash) of the table image
	// the event stream must be verified against.
	Image [32]byte

	// Program names the client for daemon-side diagnostics.
	Program string

	// Batch is the events-per-frame flush threshold (default 512,
	// capped at wire.MaxBatch).
	Batch int

	// Timeout bounds dial, handshake and individual writes
	// (default 10s).
	Timeout time.Duration

	// OnAlarm, when set, observes each alarm as it arrives (called
	// from the client's reader goroutine).
	OnAlarm func(wire.Alarm)

	// OnAlarmCtx, when set, observes each forensic alarm context as it
	// arrives (called from the reader goroutine). A daemon running with
	// its flight recorder enabled (the default) follows every Alarm
	// frame with the AlarmCtx that annotates it, paired by Seq.
	OnAlarmCtx func(wire.AlarmCtx)

	// DiscardCtx makes the client count AlarmCtx frames without
	// decoding or retaining them: AlarmContexts stays empty and
	// OnAlarmCtx is never called, but CtxCount still tallies every
	// frame. Load generation uses this — at adversarial alarm rates
	// the forensic stream is bulky, and decoding it in-process would
	// measure the client's allocator instead of the daemon.
	DiscardCtx bool

	// TraceSample, when > 0, stamps every TraceSample-th Batch frame
	// the client writes — by Send or SendEncoded alike — with the wire
	// trace extension (a fresh trace id plus the client's clock at the
	// write), making the daemon expand that batch into a per-stage span
	// record behind /debug/trace. 0 (the default) sends batches
	// byte-identical to a pre-trace client.
	TraceSample int
}

func (c Config) withDefaults() Config {
	if c.Batch <= 0 {
		c.Batch = 512
	}
	c.Batch = min(c.Batch, wire.MaxBatch)
	if c.Timeout <= 0 {
		c.Timeout = 10 * time.Second
	}
	return c
}

// batchMark remembers when a flushed batch was sent so acks and alarms
// can be turned into latency samples. The lower bounds (evLo, brLo)
// also let Redial roll a cut-off session back to the last boundary the
// server acked: acks always land on batch boundaries, so the acked
// point is the base of some unretired mark.
type batchMark struct {
	evLo, events   uint64 // cumulative events before / after this batch
	brLo, branchHi uint64 // cumulative branch events before / after
	sent           time.Time
}

// Client is one verifier session. Send/Flush/Drain must be called from
// a single goroutine; alarm and ack delivery runs on an internal
// reader goroutine.
type Client struct {
	cfg     Config
	conn    net.Conn
	buf     []byte       // Send's encoded batch
	scratch []byte       // stamped copy of a write's frames
	pend    []wire.Event // Send's sub-batch tail, cap Batch

	sent     uint64 // events flushed (cumulative across redials)
	branches uint64 // branch events flushed (cumulative across redials)

	// Resume bases, set by Redial: the event and branch totals carried
	// over from the previous connection. Server-reported acks and alarm
	// sequence numbers restart from zero on the new session; re-basing
	// them keeps Acked() and Alarms() cumulative, so a handed-off
	// session's stream is indistinguishable from an uninterrupted one.
	evBase uint64
	brBase uint64

	// Trace stamping state (single sender goroutine, like pend): flushCnt
	// counts the Batch frames written by Send and SendEncoded alike and
	// picks every TraceSample-th, traceBase keys this session's trace ids
	// so two clients' samples stay distinguishable fleet-wide.
	flushCnt  uint64
	traceBase uint64

	ctxN atomic.Uint64 // AlarmCtx frames seen (decoded or discarded)

	mu        sync.Mutex
	marks     []batchMark // marks[head:] are unretired, in send order
	head      int
	alarms    alarmLog
	ctxs      []wire.AlarmCtx
	incidents []wire.Incident
	acked     uint64
	ackLat    LatencyHist // fixed size: retained memory is O(1) in acks
	srvErr    *wire.Error
	readerErr error

	sawBye  chan struct{}
	readerD chan struct{}
}

// Dial connects, performs the hello handshake and starts the reader.
func Dial(cfg Config) (*Client, error) {
	cfg = cfg.withDefaults()
	conn, err := dialTCP(cfg)
	if err != nil {
		return nil, err
	}
	return DialConn(conn, cfg)
}

// dialTCP opens the TCP connection Dial and Redial hand to dialConn.
func dialTCP(cfg Config) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", cfg.Addr, cfg.Timeout)
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return conn, err
}

// DialConn performs the handshake and starts the reader over an
// already-established connection — net.Pipe in in-process benchmarks,
// a TCP conn in Dial. Ownership of conn passes to the client, which
// closes it on any handshake failure.
func DialConn(conn net.Conn, cfg Config) (*Client, error) {
	return dialConn(conn, cfg.withDefaults(), nil, 0, 0)
}

// dialConn is DialConn with an optional resume source: when prev is
// non-nil the new client starts from the given event/branch bases
// (usually prev's cumulative totals; less than them when Redial rolled
// back to the server's acked boundary) and carries prev's accumulated
// alarms, contexts, incidents and latency samples — seeded before the
// reader goroutine starts, so there is no window in which new frames
// and carried state interleave wrongly.
func dialConn(conn net.Conn, cfg Config, prev *Client, evBase, brBase uint64) (*Client, error) {
	c := &Client{
		cfg:     cfg,
		conn:    conn,
		sawBye:  make(chan struct{}),
		readerD: make(chan struct{}),
		// Clock-derived, shifted to leave room for the per-batch counter;
		// |1 keeps the first stamped id nonzero (zero means "untraced" on
		// the wire).
		traceBase: uint64(time.Now().UnixNano())<<16 | 1,
	}
	if prev != nil {
		c.evBase, c.brBase = evBase, brBase
		c.sent, c.branches = evBase, brBase
		prev.mu.Lock()
		c.acked = prev.acked
		c.alarms = prev.alarms.fork()
		c.ctxs = append([]wire.AlarmCtx(nil), prev.ctxs...)
		c.incidents = append([]wire.Incident(nil), prev.incidents...)
		c.ackLat = prev.ackLat
		prev.mu.Unlock()
		c.ctxN.Store(prev.ctxN.Load())
	}
	fail := func(err error) (*Client, error) {
		conn.Close()
		return nil, err
	}
	hello, err := wire.Append(nil, wire.Hello{
		Version: wire.Version,
		Image:   cfg.Image,
		Program: cfg.Program,
	})
	if err != nil {
		return fail(err)
	}
	conn.SetDeadline(time.Now().Add(cfg.Timeout))
	if _, err := conn.Write(hello); err != nil {
		return fail(err)
	}
	rd := wire.NewReader(conn)
	f, err := rd.Next()
	if err != nil {
		return fail(fmt.Errorf("ipdsclient: handshake: %w", err))
	}
	switch fr := f.(type) {
	case wire.HelloAck:
		if fr.Version != wire.Version {
			return fail(fmt.Errorf("ipdsclient: server speaks version %d, want %d", fr.Version, wire.Version))
		}
		if int(fr.MaxBatch) > 0 && c.cfg.Batch > int(fr.MaxBatch) {
			c.cfg.Batch = int(fr.MaxBatch)
		}
	case wire.Error:
		return fail(fmt.Errorf("ipdsclient: refused: %s: %s", fr.Code, fr.Msg))
	default:
		return fail(fmt.Errorf("ipdsclient: handshake: unexpected %v frame", f.Type()))
	}
	conn.SetDeadline(time.Time{})
	go c.readLoop(rd)
	return c, nil
}

// readLoop consumes server frames until Bye, error or EOF. Alarms and
// Acks, the frames a verified stream is made of, take boxing-free
// decoders. The clock is read only for a frame that needed a socket
// read; the frames already buffered behind it share that reading, so
// an alarm flood costs no clock read per alarm.
func (c *Client) readLoop(rd *wire.Reader) {
	defer close(c.readerD)
	var now time.Time
	for {
		fresh := !rd.FrameBuffered()
		typ, raw, err := rd.NextHeader()
		if err == nil {
			if fresh {
				now = time.Now()
			}
			switch typ {
			case wire.TypeAlarm:
				if err = c.alarm(raw, now); err == nil {
					continue
				}
			case wire.TypeAck:
				var a wire.Ack
				if err = wire.DecodeAckInto(raw, &a); err == nil {
					c.ack(a, now)
					continue
				}
			case wire.TypeAlarmCtx:
				c.ctxN.Add(1)
				if c.cfg.DiscardCtx {
					continue // counted, never decoded
				}
			}
		}
		var f wire.Frame
		if err == nil {
			f, err = wire.Decode(raw)
		}
		if err != nil {
			c.mu.Lock()
			c.readerErr = err
			c.mu.Unlock()
			return
		}
		switch fr := f.(type) {
		case wire.AlarmCtx:
			// Keep Alarm/AlarmCtx Seq pairing intact across redials.
			fr.Seq += c.brBase
			for i := range fr.Recent {
				fr.Recent[i].Seq += c.brBase
			}
			c.mu.Lock()
			c.ctxs = append(c.ctxs, fr)
			c.mu.Unlock()
			if c.cfg.OnAlarmCtx != nil {
				c.cfg.OnAlarmCtx(fr)
			}
		case wire.Incident:
			c.mu.Lock()
			c.incidents = append(c.incidents, fr)
			c.mu.Unlock()
		case wire.Error:
			e := fr
			c.mu.Lock()
			c.srvErr = &e
			c.mu.Unlock()
		case wire.Bye:
			close(c.sawBye)
			return
		}
	}
}

// ack records one cumulative Ack that arrived at now.
func (c *Client) ack(a wire.Ack, now time.Time) {
	a.Events += c.evBase
	c.mu.Lock()
	c.acked = a.Events
	// Retire every mark this cumulative ack covers; the newest retired
	// mark timestamps the ack round trip. Marks are in send order, so
	// the first mark the ack does not cover ends the scan.
	i := c.head
	for i < len(c.marks) && c.marks[i].events <= a.Events {
		i++
	}
	if i > c.head {
		c.ackLat.Add(now.Sub(c.marks[i-1].sent))
		c.head = i
		if i == len(c.marks) {
			c.marks, c.head = c.marks[:0], 0
		}
	}
	c.mu.Unlock()
}

// alarm decodes one Alarm frame payload, which arrived at now, straight
// into the alarm log: no Frame boxing, and the function name is
// interned rather than copied per alarm.
func (c *Client) alarm(raw []byte, now time.Time) error {
	var a wire.Alarm
	fn, err := wire.DecodeAlarmInto(raw, &a)
	if err != nil {
		return err
	}
	a.Seq += c.brBase
	c.mu.Lock()
	// The alarm's Seq counts branch events; the batch that carried it
	// gives a delivery-latency sample.
	var lat time.Duration
	hasLat := false
	for _, mk := range c.marks[c.head:] {
		if a.Seq <= mk.branchHi {
			lat, hasLat = now.Sub(mk.sent), true
			break
		}
	}
	a.Func, err = c.alarms.add(a, fn, lat, hasLat)
	full, seal := c.alarms.full()
	c.mu.Unlock()
	if err != nil {
		return err
	}
	// A full block's chunks are written for good: compress them without
	// the lock that Acked, Alarms and Redial take, then swap them out.
	if seal {
		z := sealBlock(&full)
		c.mu.Lock()
		c.alarms.sealed(z)
		c.mu.Unlock()
	}
	if c.cfg.OnAlarm != nil {
		c.cfg.OnAlarm(a)
	}
	return nil
}

// Send ships evs in whole batches — topping up a buffered partial batch
// first, then encoding straight from evs — and buffers the sub-batch
// tail. Each batch is one mark and one write (Redial rolls back to one).
func (c *Client) Send(evs ...wire.Event) error {
	if c.pend == nil {
		c.pend = make([]wire.Event, 0, c.cfg.Batch)
	}
	if len(c.pend) > 0 {
		k := min(c.cfg.Batch-len(c.pend), len(evs))
		c.pend, evs = append(c.pend, evs[:k]...), evs[k:]
		if len(c.pend) < c.cfg.Batch {
			return nil
		}
		if err := c.Flush(); err != nil {
			return err
		}
	}
	for ; len(evs) >= c.cfg.Batch; evs = evs[c.cfg.Batch:] {
		if err := c.flush(evs[:c.cfg.Batch]); err != nil {
			return err
		}
	}
	c.pend = append(c.pend, evs...)
	return nil
}

// Flush sends any buffered partial batch.
func (c *Client) Flush() error {
	if len(c.pend) == 0 {
		return nil
	}
	if err := c.flush(c.pend); err != nil {
		return err
	}
	c.pend = c.pend[:0]
	return nil
}

// flush encodes evs as one untraced Batch frame and ships it.
func (c *Client) flush(evs []wire.Event) error {
	var err error
	if c.buf, err = wire.Append(c.buf[:0], wire.Batch{Events: evs}); err != nil {
		return err
	}
	var branches uint64
	for _, ev := range evs {
		if ev.Kind == wire.EvBranch {
			branches++
		}
	}
	return c.ship(c.buf, uint64(len(evs)), branches)
}

// SendEncoded ships pre-encoded Batch frames — typically built once
// with wire.AppendBatches and replayed many times by a load generator,
// so the per-replay client cost is one socket write instead of
// re-encoding every event. events and branches must describe the
// frames' contents (total events, total branch events); they feed the
// same ack/alarm latency marks Send maintains, with one mark covering
// the whole block. Events buffered by Send are flushed first so stream
// order is preserved. Under Config.TraceSample the frames are stamped
// like Send's, into a copy: the caller's block is never written.
func (c *Client) SendEncoded(frames []byte, events, branches uint64) error {
	if err := c.Flush(); err != nil {
		return err
	}
	if len(frames) == 0 || events == 0 {
		return nil
	}
	return c.ship(frames, events, branches)
}

// ship writes encoded Batch frames holding events events, branches of
// them branch events, as one mark and one write. It is the only writer
// of Batch bytes, so it alone stamps traces. One clock reading serves
// the write's trace origin, its mark and its write deadline.
func (c *Client) ship(frames []byte, events, branches uint64) error {
	now := time.Now()
	if c.cfg.TraceSample > 0 {
		var err error
		if frames, err = c.stamp(frames, now); err != nil {
			return err
		}
	}
	evLo, brLo := c.sent, c.branches
	c.sent += events
	c.branches += branches
	mark := batchMark{evLo: evLo, events: c.sent, brLo: brLo, branchHi: c.branches, sent: now}
	c.mu.Lock()
	if len(c.marks) == cap(c.marks) && c.head > 0 && 2*c.head >= len(c.marks) {
		// At least half the array is retired: move the rest to the front
		// (amortised O(1) per mark) instead of growing the array.
		c.marks, c.head = c.marks[:copy(c.marks, c.marks[c.head:])], 0
	}
	c.marks = append(c.marks, mark)
	c.mu.Unlock()
	c.conn.SetWriteDeadline(now.Add(c.cfg.Timeout))
	if _, err := c.conn.Write(frames); err != nil {
		return fmt.Errorf("ipdsclient: %w", err)
	}
	return nil
}

// stamp walks frames by their length prefixes and returns them with
// every TraceSample-th frame, counted by flushCnt, carrying the trace
// extension and this write's origin, now. Stamped output is built in
// the client's scratch buffer; a write that stamps nothing returns
// frames.
func (c *Client) stamp(frames []byte, now time.Time) ([]byte, error) {
	n, every, origin := c.flushCnt, uint64(c.cfg.TraceSample), uint64(now.UnixNano())
	out, copied := c.scratch[:0], 0
	for off := 0; off < len(frames); n++ {
		if len(frames)-off < 4 {
			return nil, fmt.Errorf("ipdsclient: truncated frame header at byte %d", off)
		}
		end := off + 4 + int(binary.LittleEndian.Uint32(frames[off:]))
		if end > len(frames) {
			return nil, fmt.Errorf("ipdsclient: frame at byte %d overruns the block", off)
		}
		if n%every == 0 {
			var err error
			if out, err = wire.StampBatch(append(out, frames[copied:off]...), frames[off:end], c.traceBase+n, origin); err != nil {
				return nil, fmt.Errorf("ipdsclient: %w", err)
			}
			copied = end
		}
		off = end
	}
	c.flushCnt = n
	if copied == 0 {
		return frames, nil
	}
	c.scratch = append(out, frames[copied:]...)
	return c.scratch, nil
}

// Drain flushes, sends Bye, and waits until the server has verified
// everything and said Bye back (or the timeout expires). The client's
// alarm set is complete once Drain returns nil.
func (c *Client) Drain() error {
	if err := c.Flush(); err != nil {
		return err
	}
	bye := wire.MustAppend(nil, wire.Bye{})
	c.conn.SetWriteDeadline(time.Now().Add(c.cfg.Timeout))
	if _, err := c.conn.Write(bye); err != nil {
		return fmt.Errorf("ipdsclient: %w", err)
	}
	select {
	case <-c.sawBye:
	case <-c.readerD:
		// The reader closes sawBye and then readerD when a Bye lands, so
		// both can be ready at once and the select may pick either; only
		// a retired reader that never saw Bye is a failure.
		select {
		case <-c.sawBye:
		default:
			if e := c.ServerError(); e != nil {
				return fmt.Errorf("ipdsclient: session ended: %s: %s", e.Code, e.Msg)
			}
			c.mu.Lock()
			err := c.readerErr
			c.mu.Unlock()
			return fmt.Errorf("ipdsclient: session ended: %w", err)
		}
	case <-time.After(c.cfg.Timeout):
		return fmt.Errorf("ipdsclient: drain timed out after %v", c.cfg.Timeout)
	}
	if c.Acked() != c.sent {
		return fmt.Errorf("ipdsclient: drained with %d/%d events acked", c.Acked(), c.sent)
	}
	return nil
}

// Close tears the connection down. Safe after Drain.
func (c *Client) Close() error {
	err := c.conn.Close()
	<-c.readerD
	return err
}

// Done returns a channel closed when the session ends from the server
// side — Bye received or connection lost. It lets a caller observe a
// server-initiated drain without sending its own Bye.
func (c *Client) Done() <-chan struct{} { return c.readerD }

// Draining reports whether the server has sent a mid-session
// ErrDraining advisory: it is shutting down and the client should
// finish its current work, Drain, and Redial — through a fleet
// router, the redial lands on another node.
func (c *Client) Draining() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.srvErr != nil && c.srvErr.Code == wire.ErrDraining
}

// Redial resumes a finished session on a fresh connection: same
// config (and so the same image hash and dial address — a router will
// re-place the session), with the previous connection's cumulative
// event and branch totals carried over. Server acks and alarm
// sequence numbers on the new session are re-based onto those totals,
// and the accumulated alarms, contexts, incidents and latency samples
// carry forward, so the resumed client reads exactly like one
// uninterrupted session. The previous session must have ended first
// (Drain returned, or Done closed).
//
// If the server sealed the session before everything sent was verified
// — a drain cut off a write still in flight — the resumed session
// rolls back to the acked boundary: every verified event was acked,
// and acks land on batch boundaries, so the acked point is the base of
// an unretired batch mark. The new client's Sent() restarts from that
// boundary and the caller must re-send everything after it; the unacked
// tail was never verified, so re-sending it keeps the stream exact.
func Redial(c *Client) (*Client, error) {
	select {
	case <-c.readerD:
	default:
		return nil, fmt.Errorf("ipdsclient: redial with the session still live")
	}
	evBase, brBase := c.sent, c.branches
	if acked := c.Acked(); acked != c.sent {
		c.mu.Lock()
		ok := c.head < len(c.marks) && c.marks[c.head].evLo == acked
		brLo := uint64(0)
		if ok {
			brLo = c.marks[c.head].brLo
		}
		c.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("ipdsclient: redial with %d/%d events acked, off any batch boundary", acked, c.sent)
		}
		evBase, brBase = acked, brLo
	}
	conn, err := dialTCP(c.cfg)
	if err != nil {
		return nil, err
	}
	return dialConn(conn, c.cfg, c, evBase, brBase)
}

// Alarms returns the alarms received so far (in delivery order). The
// list is decoded from a snapshot taken under the lock but built after
// releasing it, so listing a large log never stalls ack and alarm
// delivery.
func (c *Client) Alarms() []wire.Alarm {
	c.mu.Lock()
	v := c.alarms.view()
	c.mu.Unlock()
	return v.alarms()
}

// AlarmCount returns len(Alarms()) without building the list.
func (c *Client) AlarmCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.alarms.n
}

// AlarmContexts returns the forensic contexts received so far (in
// delivery order, one per alarm the daemon had a retained context
// for). Always empty under Config.DiscardCtx — use CtxCount there.
func (c *Client) AlarmContexts() []wire.AlarmCtx {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]wire.AlarmCtx, len(c.ctxs))
	copy(out, c.ctxs)
	return out
}

// Incidents returns the ranked incident summaries received so far —
// the daemon emits them (highest score first) during a graceful drain,
// so after Drain returns nil this is the server's view of what the
// session's alarm storm folded into.
func (c *Client) Incidents() []wire.Incident {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]wire.Incident, len(c.incidents))
	copy(out, c.incidents)
	return out
}

// CtxCount returns the number of AlarmCtx frames received so far,
// whether decoded or discarded by Config.DiscardCtx.
func (c *Client) CtxCount() uint64 { return c.ctxN.Load() }

// Acked returns the server's cumulative verified-event count.
func (c *Client) Acked() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.acked
}

// Sent returns the events flushed to the server so far.
func (c *Client) Sent() uint64 { return c.sent }

// Batch returns the session's events-per-frame limit after HelloAck
// negotiation (the configured batch, lowered to the server's MaxBatch).
func (c *Client) Batch() int { return c.cfg.Batch }

// ServerError returns the last Error frame received, if any.
func (c *Client) ServerError() *wire.Error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.srvErr == nil {
		return nil
	}
	e := *c.srvErr
	return &e
}

// Latencies returns the ack round-trip histogram and the alarm
// delivery samples (either may be empty). Ack round trips are binned,
// so a long-running client holds a fixed 15 KiB for them; alarm
// samples stay exact in the alarm log and, like Alarms, are decoded
// after releasing the lock.
func (c *Client) Latencies() (ack LatencyHist, alarm []time.Duration) {
	c.mu.Lock()
	ack = c.ackLat
	v := c.alarms.view()
	c.mu.Unlock()
	return ack, v.latencies()
}

// Percentile returns the q-th (0..1) percentile of samples (0 when
// empty). Samples are sorted in place.
func Percentile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	i := int(q * float64(len(samples)-1))
	return samples[i]
}
