// Package incident folds the daemon's alarm stream into a short ranked
// list of explainable incidents — the "alarm intelligence" stage that
// sits behind the serve path. A single persistent corruption in a hot
// loop raises tens of thousands of alarms; an operator needs the one
// incident underneath them, scored above the background drip.
//
// The pipeline has three layers, run incrementally as alarms stream in:
//
//   - Layer 1 — change-point detection: a one-sided CUSUM detector per
//     (signal, session) watches the alarm rate over sequence-number
//     buckets and counts sudden onsets (the signature of a seeded or
//     live corruption, as opposed to steady scattered noise).
//   - Layer 2 — dedup: a stable bloom filter per session folds repeat
//     (func, branch, bucket) tuples, so a million-alarm storm costs the
//     correlators one tuple per bucket, not one per alarm.
//   - Layer 3 — correlation: signals are clustered by overlapping
//     sequence ranges (TimeCluster) and ordered by cross-session
//     first-occurrence (LeadLag: "alarms at f lead alarms at g by ~N
//     events"), then scored into Incident records carrying their best
//     forensic AlarmContext and a human-readable evidence summary.
//
// Determinism contract: all analytics run on the branch-sequence axis
// (never wall clock), per-session state is keyed by the caller's
// session id but session ids never influence output, and every global
// aggregate is commutative (min/max/sum). Feeding the same per-session
// alarm streams in any interleaving therefore yields the same ranked
// incident list — the property that lets a live daemon's incidents be
// checked against an in-process replay.
package incident

import (
	"math/bits"
	"sync"
	"time"

	"repro/internal/ipds"
	"repro/internal/obs"
)

// Defaults for Config's zero values.
const (
	// DefaultBucketEvents is the sequence-bucket width the rate series
	// and dedup tuples are keyed by: small enough that a change-point
	// lands within a few buckets of its true onset, large enough that a
	// hot loop's alarms coalesce.
	DefaultBucketEvents = 512
	// DefaultMaxSignals bounds distinct (func, branch) signals tracked;
	// overflow is counted, never silently folded into a wrong signal.
	DefaultMaxSignals = 1024
	// DefaultClusterGap is the bucket gap TimeCluster still merges.
	DefaultClusterGap = 2
	// DefaultBloomCells sizes each session's stable bloom filter.
	DefaultBloomCells = 8192
)

// Config parameterises an Analyzer. The zero value of any field selects
// the documented default.
type Config struct {
	// BucketEvents is the width, in branch-sequence numbers, of one
	// rate/dedup bucket (default DefaultBucketEvents).
	BucketEvents int

	// MaxSignals bounds the distinct (func, branch PC) signals tracked
	// (default DefaultMaxSignals). Alarms for signals past the bound
	// are counted in Stats.Overflow and dropped from analytics.
	MaxSignals int

	// ClusterGap is the largest bucket gap between two signals' active
	// ranges that TimeCluster still merges (default DefaultClusterGap).
	ClusterGap uint64

	// BloomCells sizes each session's stable bloom dedup filter
	// (default DefaultBloomCells), rounded up to a power of two.
	BloomCells int

	// Reg receives incident_* metrics; nil disables (free).
	Reg *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.BucketEvents <= 0 {
		c.BucketEvents = DefaultBucketEvents
	}
	if c.MaxSignals <= 0 {
		c.MaxSignals = DefaultMaxSignals
	}
	if c.ClusterGap == 0 {
		c.ClusterGap = DefaultClusterGap
	}
	if c.BloomCells <= 0 {
		c.BloomCells = DefaultBloomCells
	}
	c.BloomCells = 1 << bits.Len(uint(c.BloomCells-1))
	return c
}

// AlarmEvent is one alarm as the analyzer consumes it: a value copy of
// the fields the analytics need, detached from any machine-owned
// memory, so producers can hand it across a queue without aliasing.
type AlarmEvent struct {
	Session uint64 // producer's session id (never surfaced in output)
	Seq     uint64 // branch-event sequence number within the session
	PC      uint64 // branch address
	Func    string // enclosing function name
	Taken   bool   // direction the stream claimed
}

// sigKey identifies one signal: a (function, branch PC) pair.
type sigKey struct {
	pc uint64
	fn string
}

// signal accumulates the cross-session aggregates of one (func, branch)
// alarm source. Every field is a commutative aggregate (sum/min/max),
// so session interleaving never changes a signal's final state.
type signal struct {
	fn  string
	pc  uint64
	hpc uint64 // tuplePrefix(fn, pc): the bucket-free half of its dedup hash

	alarms   uint64 // alarms observed
	folded   uint64 // alarms folded by dedup (repeat tuples)
	tuples   uint64 // dedup survivors: distinct (session, bucket) tuples
	sessions int    // sessions that saw this signal

	firstSeq    uint64
	lastSeq     uint64
	firstBucket uint64
	lastBucket  uint64

	bursts     int    // CUSUM change-points fired across sessions
	firstBurst uint64 // earliest bucket a change-point fired at

	// ctx is the best (earliest-sequence) forensic capture seen for
	// this signal, deep-copied so it never aliases producer memory.
	ctx    *ipds.AlarmContext
	ctxSeq uint64
}

// sessState is one session's private detector state: its dedup filter
// and its per-signal rate series.
type sessState struct {
	bloom  stableBloom
	series map[*signal]*series
}

// series is one (session, signal) alarm-rate series: the open bucket
// being accumulated and the CUSUM state over the closed ones.
type series struct {
	open     bool
	bucket   uint64
	count    float64
	firstSeq uint64 // first alarm of this signal in this session
	cu       cusum
}

// metrics is the incident_* instrument set; nil-safe like all of obs.
type metrics struct {
	alarms   *obs.Counter   // incident_alarms_total
	folds    *obs.Counter   // incident_dedup_folds_total
	bursts   *obs.Counter   // incident_changepoints_total
	overflow *obs.Counter   // incident_signal_overflow_total
	signals  *obs.Gauge     // incident_signals
	open     *obs.Gauge     // incident_open (at last ranking)
	rankNs   *obs.Histogram // incident_rank_ns (per Incidents call)
}

func newIncidentMetrics(r *obs.Registry) metrics {
	return metrics{
		alarms:   r.Counter("incident_alarms_total"),
		folds:    r.Counter("incident_dedup_folds_total"),
		bursts:   r.Counter("incident_changepoints_total"),
		overflow: r.Counter("incident_signal_overflow_total"),
		signals:  r.Gauge("incident_signals"),
		open:     r.Gauge("incident_open"),
		rankNs:   r.Histogram("incident_rank_ns"),
	}
}

// Analyzer is the streaming incident pipeline. One goroutine may feed
// Observe/ObserveBatch/ObserveContext while others call
// Incidents/Stats: a single mutex guards all state (the analyzer runs
// off the serve hot path and the daemon feeds it a run of alarms per
// lock, so locking is cheap where an ipds.Machine's would not be).
type Analyzer struct {
	cfg Config
	met metrics

	mu       sync.Mutex
	signals  map[sigKey]*signal
	sessions map[uint64]*sessState
	alarms   uint64
	folded   uint64
	overflow uint64
}

// NewAnalyzer creates an empty analyzer.
func NewAnalyzer(cfg Config) *Analyzer {
	cfg = cfg.withDefaults()
	return &Analyzer{
		cfg:      cfg,
		met:      newIncidentMetrics(cfg.Reg),
		signals:  map[sigKey]*signal{},
		sessions: map[uint64]*sessState{},
	}
}

// Observe feeds one alarm through layers 1 and 2: ObserveBatch of a
// single alarm.
func (a *Analyzer) Observe(ev AlarmEvent) {
	a.ObserveBatch([]AlarmEvent{ev})
}

// ObserveBatch feeds a run of alarms through layers 1 and 2 under one
// lock, exactly as the same alarms fed one by one to Observe. The
// session state, signal and series an alarm resolves to are reused by
// the next alarm of the same session and signal, so a run of one
// session's alarms (the daemon feeds a verifier pass's alarms as one
// run) pays the map lookups once per change of signal rather than once
// per alarm. Steady state (known signals, known session) is
// allocation-free.
func (a *Analyzer) ObserveBatch(evs []AlarmEvent) {
	if len(evs) == 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	var (
		st                      *sessState
		sess                    uint64
		sig                     *signal
		sr                      *series
		folds, bursts, overflow uint64
	)
	bw := uint64(a.cfg.BucketEvents)
	for i := range evs {
		ev := &evs[i]
		bucket := ev.Seq / bw
		if sig == nil || ev.PC != sig.pc || ev.Func != sig.fn {
			k := sigKey{pc: ev.PC, fn: ev.Func}
			next := a.signals[k]
			if next == nil {
				if len(a.signals) >= a.cfg.MaxSignals {
					overflow++
					continue
				}
				next = newSignal(ev, bucket)
				a.signals[k] = next
				a.met.signals.Set(int64(len(a.signals)))
			}
			sig, sr = next, nil
		}
		sig.alarms++
		if ev.Seq < sig.firstSeq {
			sig.firstSeq = ev.Seq
		}
		if ev.Seq > sig.lastSeq {
			sig.lastSeq = ev.Seq
		}
		if bucket < sig.firstBucket {
			sig.firstBucket = bucket
		}
		if bucket > sig.lastBucket {
			sig.lastBucket = bucket
		}

		if st == nil || ev.Session != sess {
			sess, sr = ev.Session, nil
			if st = a.sessions[sess]; st == nil {
				st = &sessState{series: map[*signal]*series{}}
				st.bloom.init(a.cfg.BloomCells)
				a.sessions[sess] = st
			}
		}
		if sr == nil {
			if sr = st.series[sig]; sr == nil {
				sr = &series{firstSeq: ev.Seq}
				st.series[sig] = sr
				sig.sessions++
			}
		}

		// Layer 2: fold repeat (func, branch, bucket) tuples per session.
		if st.bloom.addFresh(sig.tupleHash(bucket)) {
			sig.tuples++
		} else {
			sig.folded++
			folds++
		}

		// Layer 1: close finished rate buckets into the CUSUM detector.
		// Alarms arrive per session in sequence order, so bucket advances
		// are monotone within a series.
		switch {
		case !sr.open:
			sr.open, sr.bucket, sr.count = true, bucket, 1
		case bucket == sr.bucket:
			sr.count++
		case bucket > sr.bucket:
			if sr.cu.feed(sr.count) {
				sig.bursts++
				if sr.bucket < sig.firstBurst {
					sig.firstBurst = sr.bucket
				}
				bursts++
			}
			// Quiet buckets between alarms relax the detector's baseline; a
			// bounded number of zero-feeds models an arbitrarily long gap
			// (the EWMA converges fast, so four zeros ≈ any number).
			if gap := bucket - sr.bucket - 1; gap > 0 {
				if gap > 4 {
					gap = 4
				}
				for ; gap > 0; gap-- {
					sr.cu.feed(0) // one-sided detector: a drop never fires
				}
			}
			sr.bucket, sr.count = bucket, 1
		}
	}
	n := uint64(len(evs))
	a.alarms += n
	a.folded += folds
	a.overflow += overflow
	a.met.alarms.Add(n)
	a.met.folds.Add(folds)
	a.met.bursts.Add(bursts)
	a.met.overflow.Add(overflow)
}

// newSignal opens the signal of ev's (func, branch) pair.
func newSignal(ev *AlarmEvent, bucket uint64) *signal {
	return &signal{
		fn: ev.Func, pc: ev.PC,
		hpc:      tuplePrefix(ev.Func, ev.PC),
		firstSeq: ev.Seq, lastSeq: ev.Seq,
		firstBucket: bucket, lastBucket: bucket,
		firstBurst: ^uint64(0),
		ctxSeq:     ^uint64(0),
	}
}

// ObserveContext offers a forensic capture to the alarm's signal, which
// adopts it if it precedes the capture already held (earliest capture
// is the root-cause view; min is commutative, preserving determinism).
// The context is deep-copied; the caller keeps ownership of c.
func (a *Analyzer) ObserveContext(c *ipds.AlarmContext) {
	a.mu.Lock()
	defer a.mu.Unlock()
	sig := a.signals[sigKey{pc: c.Alarm.PC, fn: c.Alarm.Func}]
	if sig == nil || c.Alarm.Seq >= sig.ctxSeq {
		return
	}
	if sig.ctx == nil {
		sig.ctx = &ipds.AlarmContext{}
	}
	c.CopyInto(sig.ctx)
	sig.ctxSeq = c.Alarm.Seq
}

// Stats is an analyzer-wide counter snapshot.
type Stats struct {
	Alarms   uint64 `json:"alarms"`   // alarms observed
	Folded   uint64 `json:"folded"`   // alarms folded by dedup
	Signals  int    `json:"signals"`  // distinct (func, branch) signals
	Overflow uint64 `json:"overflow"` // alarms dropped past MaxSignals
}

// Stats snapshots the analyzer's counters.
func (a *Analyzer) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return Stats{Alarms: a.alarms, Folded: a.folded, Signals: len(a.signals), Overflow: a.overflow}
}

// nowNanos is the ranking timer, swappable so nothing else in the
// package touches wall clock (the determinism contract).
var nowNanos = func() int64 { return time.Now().UnixNano() }
