// Command perfbench is the repository's end-to-end benchmark. It runs
// the verification daemon in-process on loopback TCP, configured as
// `ipdsd -all` configures it, and drives it from this process over
// loopback: every replayed paper server (sshd and httpd) gets its own
// connection and image in each of two loops.
//
//   - paced: an open loop. One pacing goroutine sends fixed-size frames
//     on a fixed schedule, well below capacity, through the client
//     library's Send path. Ack and detection latency run from each
//     frame's intended send instant, so a stall is charged to every
//     frame it delays.
//   - closed: one sender per connection writes pre-encoded 512-event
//     frames back to back; short rounds of fixed work give the capacity.
//
// A run alternates the two loops in cycles of about two seconds, so
// both sample the whole run: on a shared host, neighbours slow the
// kernel by up to 2x for seconds to minutes at a time. events_per_s
// and setup_s are therefore scaled to a reference host speed by a
// frozen host probe sampled beside each round and set-up (probe.go);
// the figures as measured are printed beside them. Latencies and
// counts are reported as measured.
//
// Latency is only ever taken from the open loop: a closed loop at
// saturation measures queue depth. Detection latency needs alarms, so
// every paced stream carries seeded flips. The replayed traces return
// to depth 0 on every pass, so looping them keeps the stack bounded.
// The latency p50s are ledger metrics, not end-to-end ones: on a
// shared host they move between runs of the same code by more than
// any bound the benchmark may set (METRICS.md).
//
// The seed picks only which branches are flipped and where in each
// trace a connection starts, so the amount of work is the same for
// every seed. Work is sized from -seconds, not timed by it: alarm and
// heap counts depend on the seed alone.
//
// Every delivered alarm list is checked against
// ipdsclient.ReplayLocalBatched over exactly the acked stream, and
// every frame must be acked at drain. The last stdout line is a JSON
// object: correct, attempted and failed frames, and the metrics. With
// -trace 0 those are the end-to-end metrics; with -trace 1 they are
// the per-layer ledger (see layerMetrics), plus the cost of tracing.
// The process exits non-zero when a check fails.
//
// Usage:
//
//	perfbench -workload clean|tamper -seed n -seconds s -trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"time"

	"repro/internal/ipdsclient"
	"repro/internal/server"
	"repro/internal/tables"
)

// workloadSpec is one traffic mix.
type workloadSpec struct {
	name string
	// satFlip and pacedFlip are the shares of flipped branches in the
	// closed-loop and open-loop streams.
	satFlip, pacedFlip float64
	// satRate sizes the closed loop's fixed work: its expected events/s.
	// pacedRate is the open loop's offered load.
	satRate, pacedRate float64
}

var workloads = []workloadSpec{
	// Benign closed loop: the kernel, decode and ring handoff do nearly
	// all the work and no alarm path runs; it must raise zero alarms.
	// The open loop carries sparse flips: thousands of detection
	// samples while per-frame costs (park/wake, syscalls, flushes,
	// client encoding) dominate.
	{name: "clean", satFlip: 0, pacedFlip: 3e-4, satRate: 70e6, pacedRate: 8e6},
	// 1% of branches flipped in both loops: the alarm flood exercises
	// recorder capture, Alarm/AlarmCtx encoding, writer coalescing, the
	// incident queue and client alarm handling on top of the kernel.
	{name: "tamper", satFlip: 0.01, pacedFlip: 1e-3, satRate: 55e6, pacedRate: 8e6},
}

const (
	cycleSeconds = 2.0 // one open-loop segment plus closed-loop rounds
	setupRuns    = 31  // set-ups per run; setup_s is their median
	pacedFrame   = 512 // events per open-loop frame
	pacedWarmPct = 10  // share of each open-loop segment left out as warm-up
	traceSample  = 8   // open-loop clients stamp every 8th frame when tracing

	satRoundBlocks = 32 // blocks per connection per closed-loop round: ~0.1 s
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// e2eMetrics are the end-to-end metrics every workload reports.
var e2eMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"events_per_s", "ev/s"},
	{"heap_mb", "MB"},
	{"cpu_ns_per_event", "ns"},
}

// layerMetric is one per-layer ledger entry and the end-to-end metric
// (on which workload) it should move.
type layerMetric struct{ name, unit, moves string }

var layerMetrics = []layerMetric{
	{"pipeline.compile_ms", "ms", "setup_s, all workloads"},
	{"tables.index_ms", "ms", "setup_s, all workloads"},
	{"tables.image_bytes", "bytes", "setup_s, all workloads"},
	{"ipdsclient.dial_ms", "ms", "setup_s, all workloads"},
	{"ipds.ns_per_event", "ns", "events_per_s on clean"},
	{"ipds.recorder_ns_per_event", "ns", "events_per_s on clean"},
	{"wire.decode_ns_per_event", "ns", "events_per_s on clean"},
	{"wire.bytes_per_event", "bytes", "events_per_s on clean"},
	{"server.kernel_ns_per_event", "ns", "events_per_s on clean (minus ipds.ns_per_event: the in-situ kernel gap)"},
	{"server.verify_busy_share", "ratio", "events_per_s on clean"},
	{"server.read_frames_per_publish", "frames", "events_per_s on clean"},
	{"ipds.bat_accesses_per_branch", "count", "none: the paper's cost model, must never change"},
	{"ipds.max_depth", "count", "none: must stay bounded"},
	{"ipds.alarms_per_kbranch", "count", "events_per_s on tamper (0 on clean: no false positives)"},
	{"ipds.ctx_captures_per_kalarm", "count", "events_per_s on tamper"},
	{"wire.bytes_per_alarm", "bytes", "events_per_s on tamper"},
	{"server.write_bytes_per_flush", "bytes", "events_per_s on tamper"},
	{"server.backpressure_stalls", "count", "events_per_s on tamper"},
	{"server.alarm_ctx_dropped", "count", "events_per_s on tamper"},
	{"incident.observe_ns_per_alarm", "ns", "events_per_s on tamper"},
	{"incident.queue_dropped", "count", "events_per_s on tamper"},
	{"incident.fold_ratio", "ratio", "events_per_s on tamper"},
	{"ipdsclient.heap_bytes_per_alarm", "bytes", "heap_mb on tamper"},
	{"gc.alloc_bytes_per_event", "bytes", "heap_mb on tamper, cpu_ns_per_event on both"},
	{"gc.cycles", "count", "heap_mb on tamper, cpu_ns_per_event on both"},
	{"gc.pause_ms", "ms", "heap_mb on tamper, cpu_ns_per_event on both"},
	{"ring.handoff_ns_per_batch", "ns", "ack_p50_us and detect_p50_us on both"},
	{"server.parks_per_kbatch", "count", "ack_p50_us and detect_p50_us on both"},
	{"server.writer_parks_per_kbatch", "count", "ack_p50_us and detect_p50_us on both"},
	{"server.ring_depth_p50", "tasks", "ack_p50_us and detect_p50_us on both"},
	{"server.ring_high_water", "tasks", "ack_p50_us and detect_p50_us on both"},
	{"server.verify_p50_us", "us", "ack_p50_us and detect_p50_us on both"},
	{"server.stage_queue_us", "us", "ack_p50_us and detect_p50_us on both"},
	{"server.stage_verify_us", "us", "ack_p50_us and detect_p50_us on both"},
	{"server.stage_offer_us", "us", "ack_p50_us and detect_p50_us on both"},
	{"server.stage_write_us", "us", "ack_p50_us and detect_p50_us on both"},
	{"ipdsclient.send_ns_per_event", "ns", "cpu_ns_per_event on both"},
	{"wire.encode_ns_per_event", "ns", "cpu_ns_per_event on both"},
	{"ack_p50_us", "us", "none: end-to-end ack latency; the host moves it past any allowed bound"},
	{"detect_p50_us", "us", "none: end-to-end detection latency; the host moves it past any allowed bound"},
	{"bench.gen_late_p50_us", "us", "none: how late the pacer ran"},
	{"bench.gen_late_p99_us", "us", "none: how late the pacer ran"},
	{"bench.ack_p99_us", "us", "none: host scheduler tick"},
	{"bench.ack_samples", "count", "none"},
	{"bench.detect_p99_us", "us", "none: host scheduler tick"},
	{"bench.detect_samples", "count", "none"},
	{"bench.trace_overhead_pct", "%", "none: closed-loop events_per_s, untraced vs traced rounds"},
}

// result is the benchmark's JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: clean or tamper")
	seed := flag.Int64("seed", 1, "input seed: flip positions and trace start offsets")
	seconds := flag.Float64("seconds", 10, "sizes the fixed work: about this many seconds on a 2-vCPU host")
	traced := flag.Int("trace", 0, "1 reports the per-layer ledger instead of the end-to-end metrics")
	flag.Parse()
	var spec *workloadSpec
	for i := range workloads {
		if workloads[i].name == *name {
			spec = &workloads[i]
		}
	}
	if spec == nil || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad -seconds\n", *name)
		os.Exit(2)
	}
	res, err := run(os.Stdout, *spec, *seed, *seconds, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one workload and returns its result; w receives the
// human-readable lines.
func run(w io.Writer, spec workloadSpec, seed int64, seconds float64, tracing bool) (result, error) {
	res := result{Metrics: map[string]metric{}}
	traces, err := captureTraces()
	if err != nil {
		return res, err
	}
	rng := rand.New(rand.NewSource(seed))
	var satStreams, pacedStreams [2]*stream
	for i, t := range traces {
		satStreams[i] = newStream(t, rng, spec.satFlip)
		pacedStreams[i] = newStream(t, rng, spec.pacedFlip)
	}

	// Work sizing: each cycle gives half its time to each loop.
	cycles := max(2, int(math.Round(seconds/cycleSeconds)))
	half := seconds / float64(cycles) / 2
	pp := pacedPlan{rate: spec.pacedRate, frame: pacedFrame, segments: cycles}
	pp.segFrames = max(20, int(spec.pacedRate*half/pacedFrame)) &^ 1
	pp.warm = pp.segFrames * pacedWarmPct / 100
	blockPair := float64(len(satStreams[0].block) + len(satStreams[1].block))
	cycleBlocks := max(2, int(math.Round(spec.satRate*half/blockPair)))
	sp := satPlan{blocks: min(satRoundBlocks, cycleBlocks/2), warmBlocks: cycleBlocks / 2, traced: tracing}
	sp.rounds = max(2, cycleBlocks/sp.blocks&^1)

	// Set-up, several times; the last daemon and its clients are kept.
	var (
		d      *daemon
		cl     clients
		taps   [2]*tap
		setups []setupTimes
	)
	probe := &hostProbe{evs: traces[0].evs}
	var setupProbes []float64
	base := time.Now()
	sample := 0
	if tracing {
		sample = traceSample
	}
	pacedCfg := ipdsclient.Config{Batch: pacedFrame, DiscardCtx: true, TraceSample: sample}
	satCfg := ipdsclient.Config{Batch: satFrame, DiscardCtx: true}
	for i := 0; i < setupRuns; i++ {
		for c := range taps {
			taps[c] = newTap(base, pacedFrame, pacedStreams[c], pp.framesOf(c))
		}
		setupProbes = append(setupProbes, probe.sample())
		var st setupTimes
		d, cl, st, err = startDaemon(pacedCfg, satCfg, taps)
		if err != nil {
			return res, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, st)
		if i < setupRuns-1 {
			if err := settle(cl, pacedStreams, satStreams); err != nil {
				return res, fmt.Errorf("set-up: %w", err)
			}
			if err := d.stop(cl); err != nil {
				return res, fmt.Errorf("set-up teardown: %w", err)
			}
		}
	}
	defer d.stop(cl)
	var imgs [2]*tables.Image
	for i, name := range servers {
		imgs[i] = d.image(name)
	}

	// The measured cycles: an open-loop segment, then closed-loop
	// rounds, each drained before the next starts.
	p := &pacer{plan: pp, clients: cl.paced, taps: taps, streams: pacedStreams, base: base}
	l := newClosedLoop(sp, cl.sat, satStreams, probe)
	if err := l.warm(); err != nil {
		return res, err
	}
	s0, inc0 := snapServer(d), d.srv.DebugIncidents()
	var (
		pacedPh, satPh   phaseStats
		spans            map[[2]uint64]server.SpanRec
		heap, heap0      uint64
		alarms0, alarms1 float64
	)
	for c := 0; c < cycles; c++ {
		a := snapServer(d)
		if err := p.segment(); err != nil {
			return res, err
		}
		b := snapServer(d)
		if tracing {
			// The closed loop's traced rounds would evict these.
			spans = pacedSpans(spans, d.srv.TraceSpans())
		}
		if err := l.cycle(); err != nil {
			return res, err
		}
		e := snapServer(d)
		pacedPh.add(a, b)
		satPh.add(b, e)
		h := liveHeap()
		heap = max(heap, h)
		alarms1 = float64(e.reg.Counters["server_alarms_total"])
		if c == 0 {
			heap0, alarms0 = h, alarms1
		}
	}
	var all phaseStats
	all.add(s0, snapServer(d))
	inc1 := d.srv.DebugIncidents()
	paced, err := p.finish(d)
	if err != nil {
		return res, err
	}
	sat, err := l.finish(d)
	if err != nil {
		return res, err
	}

	res.Attempted = paced.attempted + sat.attempted
	res.Failed = paced.failed + sat.failed
	res.Correct = res.Failed == 0 && (spec.satFlip > 0 || sat.alarms == 0) &&
		len(paced.ackUs) > 0 && len(paced.detectUs) > 0
	fmt.Fprintf(w, "workload %s seed %d: %d cycles of %d paced frames (%d events, %.0f ev/s) + %d closed-loop rounds of %d blocks\n",
		spec.name, seed, cycles, pp.segFrames, pp.frame, pp.rate, sp.rounds, sp.blocks)
	fmt.Fprintf(w, "frames attempted %d failed %d (differing alarms: paced %d, closed loop %d)\n",
		res.Attempted, res.Failed, paced.bad, sat.bad)
	fmt.Fprintf(w, "alarms: paced %d (flips/block %d+%d), closed loop %d (flips/block %d+%d)\n",
		paced.alarms, pacedStreams[0].flips, pacedStreams[1].flips, sat.alarms, satStreams[0].flips, satStreams[1].flips)

	setupS := make([]float64, len(setups))
	compileMs := make([]float64, len(setups))
	dialMs := make([]float64, len(setups))
	for i, st := range setups {
		setupS[i] = st.total.Seconds()
		compileMs[i] = float64(st.compile) / float64(time.Millisecond)
		dialMs[i] = float64(st.dial) / float64(time.Millisecond)
	}
	put := func(name, unit string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}

	if !tracing {
		put("setup_s", "s", median(scaled(setupS, setupProbes, -1)))
		put("events_per_s", "ev/s", median(scaled(sat.rates, sat.probes, 1)))
		put("heap_mb", "MB", float64(heap)/1e6)
		put("cpu_ns_per_event", "ns", paced.cpuNsPerEvent)
		for _, m := range e2eMetrics {
			fmt.Fprintf(w, "%-18s %14.6g %s\n", m.name, res.Metrics[m.name].Value, m.unit)
		}
		fmt.Fprintf(w, "ack p50 %.1f us p99 %.1f us (n=%d); detect p50 %.1f us p99 %.1f us (n=%d); pacer late p50 %.1f us p99 %.1f us\n",
			percentile(paced.ackUs, 0.5), percentile(paced.ackUs, 0.99), len(paced.ackUs),
			percentile(paced.detectUs, 0.5), percentile(paced.detectUs, 0.99), len(paced.detectUs),
			percentile(paced.lateUs, 0.5), percentile(paced.lateUs, 0.99))
		fmt.Fprintf(w, "as measured: setup p50 %.4g s; closed-loop rounds %d, rate p10 %.4g p50 %.4g p90 %.4g ev/s\n",
			median(setupS), len(sat.rates), percentile(sat.rates, 0.1), median(sat.rates), percentile(sat.rates, 0.9))
		fmt.Fprintf(w, "host probe p10 %.3f p50 %.3f p90 %.3f ns/event (reference %.1f)\n",
			percentile(sat.probes, 0.1), median(sat.probes), percentile(sat.probes, 0.9), probeRefNs)
		return res, nil
	}

	// The per-layer ledger.
	put("pipeline.compile_ms", "ms", median(compileMs))
	put("tables.index_ms", "ms", float64(s0.reg.Histograms[`span_ns{span="compile/tables"}`].Sum)/1e6)
	put("tables.image_bytes", "bytes", float64(d.blobs))
	put("ipdsclient.dial_ms", "ms", median(dialMs))

	on, off := kernelNs(imgs, satStreams)
	put("ipds.ns_per_event", "ns", on)
	put("ipds.recorder_ns_per_event", "ns", on-off)
	var encBytes float64
	for _, e := range l.enc {
		encBytes += float64(len(e.block))
	}
	put("wire.decode_ns_per_event", "ns", decodeNs(l.enc, satStreams))
	put("wire.bytes_per_event", "bytes", encBytes/blockPair)
	put("server.kernel_ns_per_event", "ns", ratio(float64(satPh.cores.VerifyNs), float64(satPh.cores.Events)))
	put("server.verify_busy_share", "ratio", ratio(float64(satPh.cores.VerifyNs), float64(sat.wall)*float64(len(d.srv.CoreStats()))))
	put("server.read_frames_per_publish", "frames", mean(satPh.hist("server_read_coalesced_frames")))
	put("ipds.bat_accesses_per_branch", "count", ratio(float64(sat.ref.batAccesses+paced.ref.batAccesses),
		float64(sat.ref.branches+paced.ref.branches)))
	put("ipds.max_depth", "count", float64(max(satStreams[0].maxDepth, satStreams[1].maxDepth,
		pacedStreams[0].maxDepth, pacedStreams[1].maxDepth)))

	put("ipds.alarms_per_kbranch", "count", 1000*ratio(float64(sat.ref.alarms), float64(sat.ref.branches)))
	put("ipds.ctx_captures_per_kalarm", "count", 1000*ratio(all.counter("server_alarm_ctx_total"), all.counter("server_alarms_total")))
	alarmStreams := satStreams
	if spec.satFlip == 0 {
		alarmStreams = pacedStreams
	}
	put("wire.bytes_per_alarm", "bytes", alarmBytes(imgs, alarmStreams))
	put("server.write_bytes_per_flush", "bytes", mean(satPh.hist("server_write_coalesced_bytes")))
	put("server.backpressure_stalls", "count", satPh.counter("server_backpressure_stalls_total"))
	put("server.alarm_ctx_dropped", "count", all.counter("server_alarm_ctx_dropped_total"))
	observed := sat.gotAlarms
	if len(observed) == 0 {
		observed = paced.gotAlarms
	}
	put("incident.observe_ns_per_alarm", "ns", observeNs(observed))
	put("incident.queue_dropped", "count", float64(inc1.Dropped-inc0.Dropped))
	put("incident.fold_ratio", "ratio", ratio(float64(inc1.Incidents), float64(inc1.Alarms)))

	put("ipdsclient.heap_bytes_per_alarm", "bytes", ratio(float64(heap)-float64(heap0), alarms1-alarms0))
	put("gc.alloc_bytes_per_event", "bytes", paced.gc.allocBytes/pp.measuredEvents())
	put("gc.cycles", "count", paced.gc.cycles)
	put("gc.pause_ms", "ms", paced.gc.pauseMs)

	put("ring.handoff_ns_per_batch", "ns", ringHandoffNs(200000))
	put("server.parks_per_kbatch", "count", 1000*ratio(float64(pacedPh.cores.Parks), float64(pacedPh.cores.Batches)))
	put("server.writer_parks_per_kbatch", "count", 1000*ratio(float64(pacedPh.cores.WriterParks), float64(pacedPh.cores.Batches)))
	depth := pacedPh.hist("server_ring_depth")
	put("server.ring_depth_p50", "tasks", float64(depth.Quantile(0.5)))
	put("server.ring_high_water", "tasks", float64(depth.Quantile(1)))
	put("server.verify_p50_us", "us", float64(pacedPh.hist("server_verify_ns").Quantile(0.5))/1e3)
	q, v, o, wr := spanStages(spans)
	put("server.stage_queue_us", "us", q)
	put("server.stage_verify_us", "us", v)
	put("server.stage_offer_us", "us", o)
	put("server.stage_write_us", "us", wr)
	put("ipdsclient.send_ns_per_event", "ns", paced.sendNsPerEvent)
	put("wire.encode_ns_per_event", "ns", encodeNs(pacedStreams, pacedFrame))

	put("ack_p50_us", "us", percentile(paced.ackUs, 0.5))
	put("detect_p50_us", "us", percentile(paced.detectUs, 0.5))
	put("bench.gen_late_p50_us", "us", percentile(paced.lateUs, 0.5))
	put("bench.gen_late_p99_us", "us", percentile(paced.lateUs, 0.99))
	put("bench.ack_p99_us", "us", percentile(paced.ackUs, 0.99))
	put("bench.ack_samples", "count", float64(len(paced.ackUs)))
	put("bench.detect_p99_us", "us", percentile(paced.detectUs, 0.99))
	put("bench.detect_samples", "count", float64(len(paced.detectUs)))
	// Each traced round is paired with the untraced round before it, so
	// slow drift of the host cancels out of the overhead.
	overhead := make([]float64, len(sat.tracedRates))
	for i, tr := range sat.tracedRates {
		overhead[i] = 100 * ratio(sat.rates[i]-tr, sat.rates[i])
	}
	put("bench.trace_overhead_pct", "%", median(overhead))

	for _, m := range layerMetrics {
		if _, ok := res.Metrics[m.name]; !ok {
			return res, fmt.Errorf("ledger metric %s not measured", m.name)
		}
	}
	for _, m := range layerMetrics {
		fmt.Fprintf(w, "%-34s %14.6g %-6s -> %s\n", m.name, res.Metrics[m.name].Value, m.unit, m.moves)
	}
	return res, nil
}
