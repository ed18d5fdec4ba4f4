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
	// (default DefaultBloomCells), rounded up to a power of two of at
	// least two cells.
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
	c.BloomCells = 1 << bits.Len(uint(max(c.BloomCells, 2)-1))
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

// Record is a run of one session's alarms at one (func, branch)
// signal within one sequence bucket: what the analyzer reads of those
// alarms, folded by their producer (Folder) so a flood costs the
// analyzer one update per record rather than one per alarm.
type Record struct {
	Session  uint64 // producer's session id (never surfaced in output)
	PC       uint64 // branch address
	Func     string // enclosing function name
	FirstSeq uint64 // Seq of the run's first alarm
	LastSeq  uint64 // Seq of its last, in the same bucket as FirstSeq
	Count    uint64 // alarms in the run, at least one
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
	records  *obs.Counter   // incident_records_total (an alarm fed alone is one)
	folds    *obs.Counter   // incident_dedup_folds_total
	bursts   *obs.Counter   // incident_changepoints_total
	overflow *obs.Counter   // incident_signal_overflow_total
	signals  *obs.Gauge     // incident_signals
	filters  *obs.Gauge     // incident_dedup_filters (sessions holding one)
	open     *obs.Gauge     // incident_open (at last ranking)
	rankNs   *obs.Histogram // incident_rank_ns (per Incidents call)
}

func newIncidentMetrics(r *obs.Registry) metrics {
	return metrics{
		alarms:   r.Counter("incident_alarms_total"),
		records:  r.Counter("incident_records_total"),
		folds:    r.Counter("incident_dedup_folds_total"),
		bursts:   r.Counter("incident_changepoints_total"),
		overflow: r.Counter("incident_signal_overflow_total"),
		signals:  r.Gauge("incident_signals"),
		filters:  r.Gauge("incident_dedup_filters"),
		open:     r.Gauge("incident_open"),
		rankNs:   r.Histogram("incident_rank_ns"),
	}
}

// Analyzer is the streaming incident pipeline. Any number of sessions
// may feed Observe/ObserveRecords/ObserveContext/EndSession
// concurrently, each in its own Seq order, while others call
// Incidents/Stats: a single mutex guards all state (the daemon's
// sessions feed it a run of records per lock, so locking is cheap
// where an ipds.Machine's would not be).
type Analyzer struct {
	cfg Config
	met metrics

	mu       sync.Mutex
	signals  map[sigKey]*signal
	sessions map[uint64]*sessState
	filters  int // sessions holding a dedup filter
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

// Observe feeds one alarm through layers 1 and 2, as a one-alarm
// Record.
func (a *Analyzer) Observe(ev AlarmEvent) {
	a.ObserveRecords([]Record{{Session: ev.Session, PC: ev.PC, Func: ev.Func, FirstSeq: ev.Seq, LastSeq: ev.Seq, Count: 1}})
}

// ObserveRecords feeds a run of records through layers 1 and 2 under
// one lock. The session state, signal and series a record resolves to
// are reused by the next record of the same session and signal, so a
// run pays the map lookups once per change of signal. A record of n
// alarms updates the analyzer exactly as its n alarms fed one after
// another would (bloom.go, addRun); records that fold alarms of
// different signals out of their interleaving can change only which
// tuples the dedup filter reports as repeats (DESIGN.md §10). Steady
// state (known signals, known session) is allocation-free.
func (a *Analyzer) ObserveRecords(recs []Record) {
	if len(recs) == 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	var (
		st                              *sessState
		sess                            uint64
		sig                             *signal
		sr                              *series
		alarms, folds, bursts, overflow uint64
	)
	bw := uint64(a.cfg.BucketEvents)
	for i := range recs {
		r := &recs[i]
		n := r.Count
		alarms += n
		bucket := r.FirstSeq / bw
		if sig == nil || r.PC != sig.pc || r.Func != sig.fn {
			k := sigKey{pc: r.PC, fn: r.Func}
			next := a.signals[k]
			if next == nil {
				if len(a.signals) >= a.cfg.MaxSignals {
					overflow += n
					continue
				}
				next = newSignal(r, bucket)
				a.signals[k] = next
				a.met.signals.Set(int64(len(a.signals)))
			}
			sig, sr = next, nil
		}
		sig.alarms += n
		if r.FirstSeq < sig.firstSeq {
			sig.firstSeq = r.FirstSeq
		}
		if r.LastSeq > sig.lastSeq {
			sig.lastSeq = r.LastSeq
		}
		if bucket < sig.firstBucket {
			sig.firstBucket = bucket
		}
		if bucket > sig.lastBucket {
			sig.lastBucket = bucket
		}

		if st == nil || r.Session != sess {
			sess, sr = r.Session, nil
			if st = a.sessions[sess]; st == nil {
				st = &sessState{series: map[*signal]*series{}}
				a.sessions[sess] = st
			}
		}
		if sr == nil {
			if sr = st.series[sig]; sr == nil {
				sr = &series{firstSeq: r.FirstSeq}
				st.series[sig] = sr
				sig.sessions++
			}
		}

		// Layer 2: fold repeat (func, branch, bucket) tuples per session.
		// A record's alarms after its first are repeats of its tuple.
		if st.bloom.cells == nil {
			st.bloom.init(a.cfg.BloomCells)
			a.filters++
			a.met.filters.Set(int64(a.filters))
		}
		repeats := n - 1
		if st.bloom.addRun(sig.tupleHash(bucket), n) {
			sig.tuples++
		} else {
			repeats++
		}
		sig.folded += repeats
		folds += repeats

		// Layer 1: close finished rate buckets into the CUSUM detector.
		// Alarms arrive per session in sequence order, so bucket advances
		// are monotone within a series.
		cnt := float64(n)
		switch {
		case !sr.open:
			sr.open, sr.bucket, sr.count = true, bucket, cnt
		case bucket == sr.bucket:
			sr.count += cnt
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
			sr.bucket, sr.count = bucket, cnt
		}
	}
	a.alarms += alarms
	a.folded += folds
	a.overflow += overflow
	a.met.alarms.Add(alarms)
	a.met.records.Add(uint64(len(recs)))
	a.met.folds.Add(folds)
	a.met.bursts.Add(bursts)
	a.met.overflow.Add(overflow)
}

// newSignal opens the signal of r's (func, branch) pair.
func newSignal(r *Record, bucket uint64) *signal {
	return &signal{
		fn: r.Func, pc: r.PC,
		hpc:      tuplePrefix(r.Func, r.PC),
		firstSeq: r.FirstSeq, lastSeq: r.LastSeq,
		firstBucket: bucket, lastBucket: bucket,
		firstBurst: ^uint64(0),
		ctxSeq:     ^uint64(0),
	}
}

// EndSession frees a finished session's dedup filter. Its rate series
// stay: ranking reads them (open buckets, LeadLag first occurrences).
// The daemon never reuses a session id, so no later record can meet
// the freed filter and the ranked incidents do not change; a record
// that did would start the session a fresh filter.
func (a *Analyzer) EndSession(session uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if st := a.sessions[session]; st != nil && st.bloom.cells != nil {
		st.bloom = stableBloom{}
		a.filters--
		a.met.filters.Set(int64(a.filters))
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
