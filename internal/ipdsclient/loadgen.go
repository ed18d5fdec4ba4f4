package ipdsclient

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/wire"
)

// LoadConfig parameterises a load-generation run against a daemon.
type LoadConfig struct {
	// Addr is the daemon's address.
	Addr string

	// Image is the table-image hash every session verifies against.
	Image [32]byte

	// Program labels the sessions.
	Program string

	// Trace is the event stream each session replays. Sessions loop it
	// until they have sent at least EventsPerConn events.
	Trace []wire.Event

	// Sessions is the number of concurrent connections (default 1).
	Sessions int

	// EventsPerConn is the minimum events each session ships
	// (default: one pass over Trace).
	EventsPerConn int

	// Batch is the per-frame event count (default 512).
	Batch int

	// Timeout bounds each session's network operations.
	Timeout time.Duration

	// TraceSample, when > 0, stamps every TraceSample-th Batch frame
	// each session writes with the wire trace extension, origin taken
	// at write time (Config.TraceSample). Traced and untraced runs
	// replay the same pre-encoded block; stamped frames are copies.
	TraceSample int
}

// LoadResult aggregates a load run.
type LoadResult struct {
	Sessions  int
	Events    uint64        // total events verified across sessions
	Alarms    uint64        // total alarms delivered
	AlarmCtxs uint64        // forensic AlarmCtx frames delivered
	Elapsed   time.Duration // wall clock, dial to last drain
	EventsSec float64       // Events / Elapsed

	// Ack round-trip latency percentiles across all sessions, read from
	// the merged per-session histograms (within 1/64 of exact).
	AckP50, AckP95, AckP99 time.Duration

	// Alarm delivery latency percentiles (send of the batch carrying
	// the offending branch → alarm frame arrival); zero when the trace
	// raises no alarms.
	AlarmP50, AlarmP95, AlarmP99 time.Duration

	// Incidents is the ranked incident list the daemon emitted during
	// drain (one session's copy — every session receives the same
	// server-wide list, so keeping one avoids double counting). Empty
	// when the daemon runs with its incident stage disabled.
	Incidents []wire.Incident

	// Errors collects per-session failures (nil entries elided).
	Errors []error
}

// RunLoad replays cfg.Trace from cfg.Sessions concurrent connections
// and reports aggregate throughput and latency percentiles.
func RunLoad(cfg LoadConfig) LoadResult {
	if cfg.Sessions <= 0 {
		cfg.Sessions = 1
	}
	if cfg.EventsPerConn <= 0 {
		cfg.EventsPerConn = len(cfg.Trace)
	}
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		events    uint64
		alarms    uint64
		ctxs      uint64
		incidents []wire.Incident
		ackLat    LatencyHist
		alarmLat  []time.Duration
		errs      []error
	)

	// Pre-encode the trace into one block of Batch frames, shared
	// read-only by every session. Replaying the block costs one socket
	// write instead of re-encoding the same events each pass, so the
	// generator's CPU measures the daemon rather than its own encoder —
	// which matters most when client and daemon share cores. The event
	// sequence is byte-for-byte the sequence Send would produce; only
	// frame boundaries differ (the machine carries state across frames,
	// so alarms are identical).
	batch := cfg.Batch
	if batch <= 0 || batch > wire.MaxBatch {
		batch = 512
	}
	var (
		block         []byte
		blockEvents   int
		blockBranches uint64
	)
	if len(cfg.Trace) > 0 {
		const targetBlock = 16384 // events per block: enough to amortize per-write marks
		reps := targetBlock / len(cfg.Trace)
		// Passes rounded up: when EventsPerConn fits in one block, that
		// block covers it, so the overshoot stays under one trace pass.
		if c := (cfg.EventsPerConn + len(cfg.Trace) - 1) / len(cfg.Trace); c < reps {
			reps = c
		}
		if reps < 1 {
			reps = 1
		}
		evs := make([]wire.Event, 0, reps*len(cfg.Trace))
		for i := 0; i < reps; i++ {
			evs = append(evs, cfg.Trace...)
		}
		block = wire.AppendBatches(nil, evs, batch)
		blockEvents = len(evs)
		for _, ev := range evs {
			if ev.Kind == wire.EvBranch {
				blockBranches++
			}
		}
	}

	// session runs one connection to its drain and folds its results in.
	session := func(id int) error {
		c, err := Dial(Config{
			Addr:    cfg.Addr,
			Image:   cfg.Image,
			Program: fmt.Sprintf("%s#%d", cfg.Program, id),
			Batch:   cfg.Batch,
			Timeout: cfg.Timeout,
			// Forensic contexts are counted, not decoded: the load
			// run measures the daemon, not this process's allocator.
			DiscardCtx:  true,
			TraceSample: cfg.TraceSample,
		})
		if err != nil {
			return err
		}
		defer c.Close()
		// The pre-encoded block requires the negotiated per-frame
		// limit to cover the batch size it was built with; a daemon
		// advertising a smaller MaxBatch gets the re-encoding path.
		useBlock := len(block) > 0 && c.Batch() >= batch
		for sent := 0; sent < cfg.EventsPerConn && len(cfg.Trace) > 0; {
			var err error
			if useBlock {
				err = c.SendEncoded(block, uint64(blockEvents), blockBranches)
				sent += blockEvents
			} else {
				err = c.Send(cfg.Trace...)
				sent += len(cfg.Trace)
			}
			if err != nil {
				return err
			}
		}
		if err := c.Drain(); err != nil {
			return err
		}
		ack, al := c.Latencies()
		mu.Lock()
		defer mu.Unlock()
		events += c.Acked()
		alarms += uint64(c.AlarmCount())
		ctxs += c.CtxCount()
		if inc := c.Incidents(); len(inc) > len(incidents) {
			incidents = inc // keep the fullest drain-time list, not a sum
		}
		ackLat.Merge(&ack)
		alarmLat = append(alarmLat, al...)
		return nil
	}

	start := time.Now()
	for i := 0; i < cfg.Sessions; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			if err := session(id); err != nil {
				mu.Lock()
				errs = append(errs, fmt.Errorf("session %d: %w", id, err))
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	res := LoadResult{
		Sessions:  cfg.Sessions,
		Events:    events,
		Alarms:    alarms,
		AlarmCtxs: ctxs,
		Elapsed:   elapsed,
		AckP50:    ackLat.Quantile(0.50),
		AckP95:    ackLat.Quantile(0.95),
		AckP99:    ackLat.Quantile(0.99),
		AlarmP50:  Percentile(alarmLat, 0.50),
		AlarmP95:  Percentile(alarmLat, 0.95),
		AlarmP99:  Percentile(alarmLat, 0.99),
		Incidents: incidents,
		Errors:    errs,
	}
	if secs := elapsed.Seconds(); secs > 0 {
		res.EventsSec = float64(events) / secs
	}
	return res
}
