package ipds_test

import (
	"testing"

	"repro/internal/ipds"
	"repro/internal/ipdsclient"
	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/internal/wire"
	"repro/internal/workload"
)

// perfStream is one server's PerfSession capture split into the
// 512-event batches a daemon session verifies, with the machine that
// verifies them.
type perfStream struct {
	m       *ipds.Machine
	batches [][]wire.Event
}

// perfStreams returns the sshd and httpd PerfSession captures — the two
// streams the end-to-end benchmark replays, as in internal/wire's
// perfFrames — each with a machine configured as the daemon's (flight
// recorder at DefaultRecorderDepth), and their event count. The
// captures are balanced, so replaying them in a loop keeps each
// machine at a steady depth.
func perfStreams(tb testing.TB) (streams []perfStream, events int) {
	tb.Helper()
	cfg := ipds.DefaultConfig
	cfg.Recorder = ipds.DefaultRecorderDepth
	for _, name := range []string{"sshd", "httpd"} {
		w := workload.ByName(name)
		art, err := pipeline.Compile(w.Source, ir.DefaultOptions)
		if err != nil {
			tb.Fatalf("compile %s: %v", name, err)
		}
		evs := ipdsclient.Capture(art, w.PerfSession)
		events += len(evs)
		s := perfStream{m: ipds.New(art.Image, cfg)}
		for off := 0; off < len(evs); off += 512 {
			s.batches = append(s.batches, evs[off:min(off+512, len(evs))])
		}
		streams = append(streams, s)
	}
	return streams, events
}

// BenchmarkOnBatchPerf measures the verification kernel over the
// streams the end-to-end benchmark serves — their mix of stack events,
// BAT walks and protected frames, not benchSrc's — with the daemon's
// forensic configuration. scripts/checkkernel.sh gates its ns/event
// against the base commit alongside the other kernel benchmarks.
func BenchmarkOnBatchPerf(b *testing.B) {
	streams, events := perfStreams(b)
	for _, s := range streams {
		for _, bt := range s.batches { // warm arena, result buffer, recorder ring
			s.m.OnBatch(bt)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range streams {
			for _, bt := range s.batches {
				s.m.OnBatch(bt)
			}
		}
	}
	b.StopTimer()
	total := float64(events) * float64(b.N)
	b.ReportMetric(total/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/event")
}
