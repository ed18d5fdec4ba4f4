package wire_test

import (
	"encoding/binary"
	"testing"

	"repro/internal/ipdsclient"
	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/internal/wire"
	"repro/internal/workload"
)

// perfFrames returns the sshd and httpd PerfSession captures — the two
// streams the end-to-end benchmark replays — encoded as 512-event Batch
// frame payloads (length prefixes stripped), and their event count.
func perfFrames(tb testing.TB) (payloads [][]byte, events int) {
	tb.Helper()
	for _, name := range []string{"sshd", "httpd"} {
		w := workload.ByName(name)
		art, err := pipeline.Compile(w.Source, ir.DefaultOptions)
		if err != nil {
			tb.Fatalf("compile %s: %v", name, err)
		}
		evs := ipdsclient.Capture(art, w.PerfSession)
		events += len(evs)
		buf := wire.AppendBatches(nil, evs, 512)
		for len(buf) > 0 {
			n := 4 + int(binary.LittleEndian.Uint32(buf))
			payloads = append(payloads, buf[4:n])
			buf = buf[n:]
		}
	}
	return payloads, events
}

// BenchmarkDecodeBatchInto measures the daemon's per-event decode cost:
// every perfbench-shaped 512-event frame decoded into one reused Batch,
// as a session's reader does. scripts/checkkernel.sh gates its
// ns/event against the base commit alongside the kernel benchmarks.
func BenchmarkDecodeBatchInto(b *testing.B) {
	payloads, events := perfFrames(b)
	var batch wire.Batch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range payloads {
			if err := wire.DecodeBatchInto(p, &batch); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	total := float64(events) * float64(b.N)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/event")
}
