package main

import (
	"encoding/binary"
	"runtime"
	"syscall"
	"time"

	"repro/internal/incident"
	"repro/internal/ipds"
	"repro/internal/ipdsclient"
	"repro/internal/obs"
	"repro/internal/ring"
	"repro/internal/server"
	"repro/internal/tables"
	"repro/internal/wire"
)

// The per-layer ledger. Each layer is measured from outside: counters
// the daemon already exposes (Server.CoreStats, the obs registry, the
// span records of trace-stamped batches), and timed calls into each
// layer's public functions that replay the workload's own inputs.

// microReps is how many times each timed replay repeats; the median
// is reported.
const microReps = 9

// serverSnap is the daemon's counters at one instant.
type serverSnap struct {
	cores server.CoreStats // summed over cores
	reg   obs.Snapshot
}

func snapServer(d *daemon) serverSnap {
	var s serverSnap
	for _, c := range d.srv.CoreStats() {
		s.cores.Events += c.Events
		s.cores.Batches += c.Batches
		s.cores.VerifyNs += c.VerifyNs
		s.cores.Parks += c.Parks
		s.cores.WriterParks += c.WriterParks
	}
	s.reg = d.reg.Snapshot()
	return s
}

// phaseStats sums the daemon's counter growth over the intervals one
// loop ran in.
type phaseStats struct {
	cores    server.CoreStats
	counters map[string]uint64
	hists    map[string]obs.HistSnapshot
}

// add adds the growth from a to b.
func (p *phaseStats) add(a, b serverSnap) {
	p.cores.Events += b.cores.Events - a.cores.Events
	p.cores.Batches += b.cores.Batches - a.cores.Batches
	p.cores.VerifyNs += b.cores.VerifyNs - a.cores.VerifyNs
	p.cores.Parks += b.cores.Parks - a.cores.Parks
	p.cores.WriterParks += b.cores.WriterParks - a.cores.WriterParks
	if p.counters == nil {
		p.counters = map[string]uint64{}
		p.hists = map[string]obs.HistSnapshot{}
	}
	for name, v := range b.reg.Counters {
		p.counters[name] += v - a.reg.Counters[name]
	}
	for name, hb := range b.reg.Histograms {
		ha, h := a.reg.Histograms[name], p.hists[name]
		h.Count += hb.Count - ha.Count
		h.Sum += hb.Sum - ha.Sum
		if h.Buckets == nil {
			h.Buckets = make([]uint64, len(hb.Buckets))
		}
		for i := range hb.Buckets {
			h.Buckets[i] += hb.Buckets[i]
			if i < len(ha.Buckets) {
				h.Buckets[i] -= ha.Buckets[i]
			}
		}
		p.hists[name] = h
	}
}

func (p *phaseStats) counter(name string) float64 { return float64(p.counters[name]) }

func (p *phaseStats) hist(name string) obs.HistSnapshot { return p.hists[name] }

// mean is a histogram's mean observation (0 when empty).
func mean(h obs.HistSnapshot) float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap collects garbage and returns the bytes still live. The
// count depends only on what the program retains, not on when the
// collector last ran, so it repeats across runs.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// timeMedians runs each f once to warm up, then microReps rounds that
// run every f in turn, and returns each one's median duration.
// Interleaving keeps slow drift of the host out of their differences.
func timeMedians(fs ...func()) []time.Duration {
	ds := make([][]float64, len(fs))
	for _, f := range fs {
		f()
	}
	for r := 0; r < microReps; r++ {
		for i, f := range fs {
			t0 := time.Now()
			f()
			ds[i] = append(ds[i], float64(time.Since(t0)))
		}
	}
	out := make([]time.Duration, len(fs))
	for i := range ds {
		out[i] = time.Duration(median(ds[i]))
	}
	return out
}

func timeMedian(f func()) time.Duration { return timeMedians(f)[0] }

// frames cuts a block into n-event batches.
func frames(evs []wire.Event, n int) [][]wire.Event {
	var out [][]wire.Event
	for len(evs) > 0 {
		k := min(n, len(evs))
		out = append(out, evs[:k])
		evs = evs[k:]
	}
	return out
}

// kernelNs times ipds.Machine.OnBatch over both streams' blocks in
// satFrame batches, with the flight recorder on and off, and returns
// nanoseconds per event for each.
func kernelNs(imgs [2]*tables.Image, streams [2]*stream) (on, off float64) {
	var events float64
	for i, s := range streams {
		fs := frames(s.block, satFrame)
		var passes []func()
		for _, rec := range []int{ipds.DefaultRecorderDepth, 0} {
			cfg := ipds.DefaultConfig
			cfg.Recorder = rec
			m := ipds.New(imgs[i], cfg)
			m.OnBatch(s.lead)
			passes = append(passes, func() {
				for _, f := range fs {
					m.OnBatch(f)
				}
			})
		}
		d := timeMedians(passes...)
		on += float64(d[0])
		off += float64(d[1])
		events += float64(len(s.block))
	}
	return on / events, off / events
}

// alarmBytes replays one block of each stream through a recorder-on
// machine, as the daemon runs it, and returns the encoded Alarm plus
// AlarmCtx bytes per alarm.
func alarmBytes(imgs [2]*tables.Image, streams [2]*stream) float64 {
	var bytes, alarms float64
	var buf []byte
	for i, s := range streams {
		cfg := ipds.DefaultConfig
		cfg.Recorder = ipds.DefaultRecorderDepth
		m := ipds.New(imgs[i], cfg)
		m.OnBatch(s.lead)
		seen := m.CtxCaptured()
		for _, f := range frames(s.block, satFrame) {
			for _, a := range m.OnBatch(f) {
				buf, _ = wire.AppendAlarm(buf[:0], wire.Alarm{Seq: a.Seq, PC: a.PC, Func: a.Func,
					Slot: uint32(a.Slot), Expected: uint8(a.Expected), Taken: a.Taken})
				bytes += float64(len(buf))
				alarms++
			}
			fresh := min(int(m.CtxCaptured()-seen), m.ContextCount())
			seen = m.CtxCaptured()
			for j := m.ContextCount() - fresh; j < m.ContextCount(); j++ {
				buf, _ = wire.AppendAlarmCtx(buf[:0], ipdsclient.WireContext(m.ContextAt(j)))
				bytes += float64(len(buf))
			}
		}
	}
	return ratio(bytes, alarms)
}

// decodeNs times wire.DecodeBatchInto over both encoded blocks and
// returns nanoseconds per event.
func decodeNs(enc [2]encodedStream, streams [2]*stream) float64 {
	var ns, events float64
	var b wire.Batch
	for i, e := range enc {
		ns += float64(timeMedian(func() {
			for p := e.block; len(p) > 4; {
				n := int(binary.LittleEndian.Uint32(p))
				wire.DecodeBatchInto(p[4:4+n], &b)
				p = p[4+n:]
			}
		}))
		events += float64(len(streams[i].block))
	}
	return ns / events
}

// encodeNs times wire.Append of frame-event batches over both blocks
// and returns nanoseconds per event.
func encodeNs(streams [2]*stream, frame int) float64 {
	var ns, events float64
	var buf []byte
	for _, s := range streams {
		fs := frames(s.block, frame)
		ns += float64(timeMedian(func() {
			for _, f := range fs {
				buf, _ = wire.Append(buf[:0], wire.Batch{Events: f})
			}
		}))
		events += float64(len(s.block))
	}
	return ns / events
}

// observeNs times incident.Analyzer.Observe over delivered alarms and
// returns nanoseconds per alarm (0 without alarms).
func observeNs(alarms []wire.Alarm) float64 {
	if len(alarms) == 0 {
		return 0
	}
	evs := make([]incident.AlarmEvent, len(alarms))
	for i, a := range alarms {
		evs[i] = incident.AlarmEvent{Session: 1, Seq: a.Seq, PC: a.PC, Func: a.Func, Taken: a.Taken}
	}
	d := timeMedian(func() {
		an := incident.NewAnalyzer(incident.Config{})
		for _, ev := range evs {
			an.Observe(ev)
		}
	})
	return float64(d) / float64(len(evs))
}

// ringHandoffNs times batches crossing an SPSC ring from one goroutine
// to another, the consumer spinning then parking as the daemon's
// verifier does, and returns nanoseconds per batch.
func ringHandoffNs(batches int) float64 {
	const spinPasses = 128
	r := ring.New[*wire.Batch](64)
	pk := ring.NewParker()
	one := []*wire.Batch{{}}
	done := make(chan struct{})
	t0 := time.Now()
	go func() {
		defer close(done)
		var dst [32]*wire.Batch
		for got, spins := 0, 0; got < batches; {
			if n := r.PopSlice(dst[:]); n > 0 {
				got += n
				spins = 0
				continue
			}
			if spins++; spins < spinPasses {
				runtime.Gosched()
				continue
			}
			pk.Prepare()
			if r.Len() > 0 {
				pk.Cancel()
			} else {
				pk.Park()
			}
			spins = 0
		}
	}()
	for i := 0; i < batches; i++ {
		for r.PushSlice(one) == 0 {
			runtime.Gosched()
		}
		pk.Wake()
	}
	<-done
	return float64(time.Since(t0)) / float64(batches)
}

// pacedSpans adds to into the records in recs of batches the open
// loop's clients stamped: they carry an origin instant, and the closed
// loop's pre-encoded traced frames do not. Records are keyed by session
// and trace id, so a record seen twice counts once.
func pacedSpans(into map[[2]uint64]server.SpanRec, recs []server.SpanRec) map[[2]uint64]server.SpanRec {
	if into == nil {
		into = map[[2]uint64]server.SpanRec{}
	}
	for _, r := range recs {
		if r.OriginNs != 0 {
			into[[2]uint64{r.Session, r.TraceID}] = r
		}
	}
	return into
}

// spanStages returns the p50 of each daemon stage, in µs, over span
// records: reader→verifier ring wait, kernel verify, incident offer +
// forensics + ack encode, and writer coalesce → ack flush.
func spanStages(recs map[[2]uint64]server.SpanRec) (queue, verify, offer, write float64) {
	var q, v, o, w []float64
	for _, r := range recs {
		q = append(q, float64(r.DequeueNs-r.ReadNs)/1e3)
		v = append(v, float64(r.VerifyEndNs-r.DequeueNs)/1e3)
		o = append(o, float64(r.OfferEndNs-r.VerifyEndNs)/1e3)
		w = append(w, float64(r.AckNs-r.OfferEndNs)/1e3)
	}
	return median(q), median(v), median(o), median(w)
}

// gcDelta is the collector's work between two MemStats readings.
type gcDelta struct{ allocBytes, cycles, pauseMs float64 }

func (g *gcDelta) add(o gcDelta) {
	g.allocBytes += o.allocBytes
	g.cycles += o.cycles
	g.pauseMs += o.pauseMs
}

func gcBetween(a, b *runtime.MemStats) gcDelta {
	return gcDelta{
		allocBytes: float64(b.TotalAlloc - a.TotalAlloc),
		cycles:     float64(b.NumGC - a.NumGC),
		pauseMs:    float64(b.PauseTotalNs-a.PauseTotalNs) / 1e6,
	}
}
