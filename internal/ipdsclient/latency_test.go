package ipdsclient

import (
	"math"
	"math/rand/v2"
	"runtime"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestLatencyHistQuantiles compares the histogram's p50/p95/p99 with
// the sort-based Percentile over random and adversarial sample sets:
// every quantile must be within 1/64 of the exact sample (exact below
// 32 ns).
func TestLatencyHistQuantiles(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	sets := map[string][]time.Duration{
		"one":      {42 * time.Microsecond},
		"zeros":    make([]time.Duration, 100),
		"negative": {-5, -1, 0, 3},
		"tiny":     {0, 1, 2, 30, 31, 32, 33, 63, 64, 65},
		"max":      {math.MaxInt64, math.MaxInt64 - 1, 1 << 62, 1},
	}
	var edges, uniform, lognorm, bimodal []time.Duration
	for e := 0; e < 63; e++ {
		v := time.Duration(1) << e
		edges = append(edges, v-1, v, v+1)
	}
	for range 20000 {
		uniform = append(uniform, time.Duration(r.Int64N(int64(time.Millisecond))))
		lognorm = append(lognorm, time.Duration(math.Exp(r.NormFloat64()*2+10)))
		if r.IntN(100) == 0 {
			bimodal = append(bimodal, 50*time.Millisecond+time.Duration(r.IntN(1000)))
		} else {
			bimodal = append(bimodal, 40*time.Microsecond+time.Duration(r.IntN(1000)))
		}
	}
	sets["edges"], sets["uniform"], sets["lognormal"], sets["bimodal"] = edges, uniform, lognorm, bimodal
	for name, samples := range sets {
		var h LatencyHist
		for _, d := range samples {
			h.Add(d)
		}
		if h.Count() != uint64(len(samples)) {
			t.Fatalf("%s: Count %d, want %d", name, h.Count(), len(samples))
		}
		for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
			exact := max(Percentile(append([]time.Duration(nil), samples...), q), 0)
			got := h.Quantile(q)
			if diff := math.Abs(float64(got) - float64(exact)); diff > float64(exact)/64 {
				t.Errorf("%s: q%.2f = %d, exact %d (off by %.3g%%)", name, q, got, exact, 100*diff/float64(exact))
			}
		}
	}
	var empty LatencyHist
	if empty.Quantile(0.5) != 0 {
		t.Fatal("empty histogram must report 0")
	}
}

// TestLatencyHistMerge checks that merged histograms answer like one
// histogram of every sample, as RunLoad relies on.
func TestLatencyHistMerge(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	var all, a, b LatencyHist
	for i := range 10000 {
		d := time.Duration(r.Int64N(int64(10 * time.Millisecond)))
		all.Add(d)
		if i%3 == 0 {
			a.Add(d)
		} else {
			b.Add(d)
		}
	}
	a.Merge(&b)
	if a != all {
		t.Fatal("merged histogram differs from the histogram of all samples")
	}
}

// ackClient is a piped client with its server end: acks written to the
// server end reach the client's reader as from a daemon.
func ackClient(tb testing.TB) (*Client, func(events uint64, n int)) {
	c, srv := pipeClient(tb, Config{})
	var frames []byte
	// acks writes n cumulative Acks ending at events, one event apart.
	acks := func(events uint64, n int) {
		frames = frames[:0]
		for i := n - 1; i >= 0; i-- {
			frames = wire.AppendAck(frames, wire.Ack{Events: events - uint64(i)})
		}
		if _, err := srv.Write(frames); err != nil {
			tb.Fatal(err)
		}
	}
	return c, acks
}

// addMarks appends n one-event marks to the client's outstanding set,
// as n one-event SendEncoded calls would, without writing them.
func addMarks(c *Client, n int) {
	now := time.Now()
	c.mu.Lock()
	for range n {
		c.sent++
		c.branches++
		c.marks = append(c.marks, batchMark{evLo: c.sent - 1, events: c.sent, brLo: c.branches - 1, branchHi: c.branches, sent: now})
	}
	c.mu.Unlock()
}

// waitAcked spins until the client has seen the ack for events.
func waitAcked(tb testing.TB, c *Client, events uint64) {
	tb.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.Acked() < events {
		if time.Now().After(deadline) {
			tb.Fatalf("acked %d, want %d", c.Acked(), events)
		}
		runtime.Gosched()
	}
}

// TestAckLatencyMemoryBounded sends one million acks, each retiring a
// mark and so adding a latency sample, and checks the client's live
// heap grows by less than 64 KiB. Retaining a sample per ack, as a
// slice of durations, grows it by ~8 MB.
func TestAckLatencyMemoryBounded(t *testing.T) {
	const total, block = 1 << 20, 4096
	c, acks := ackClient(t)
	round := func() {
		addMarks(c, block)
		acks(c.sent, block)
		waitAcked(t, c, c.sent)
	}
	round() // warm: the mark array reaches its working size
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range total / block {
		round()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	ack, _ := c.Latencies()
	if ack.Count() != total+block {
		t.Fatalf("%d ack samples, want %d", ack.Count(), total+block)
	}
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 64<<10 {
		t.Fatalf("live heap grew %d bytes over %d acks, want < 64 KiB", grew, total)
	}
}

// TestAckRetiresInOrder holds the ack scan, which stops at the first
// mark an ack does not cover, to the full scan over every outstanding
// mark: with thousands outstanding, each ack must retire the same
// marks and record the same latency sample.
func TestAckRetiresInOrder(t *testing.T) {
	c, _ := pipeClient(t, Config{})
	r := rand.New(rand.NewPCG(5, 6))
	base := time.Now()
	var want []batchMark
	var wantLat LatencyHist
	addBatch := func(events uint64) {
		mk := batchMark{evLo: c.sent, events: c.sent + events, sent: base.Add(time.Duration(len(want)) * time.Microsecond)}
		c.sent = mk.events
		c.mu.Lock()
		c.marks = append(c.marks, mk)
		c.mu.Unlock()
		want = append(want, mk)
	}
	for range 5000 {
		addBatch(1 + uint64(r.IntN(600)))
	}
	for acked := uint64(0); len(want) > 0; {
		// Land on a mark boundary, or between two, or repeat the last
		// ack; occasionally send more mid-stream.
		if k := r.IntN(len(want)); r.IntN(4) > 0 {
			acked = max(acked, want[min(k, 40)].events-uint64(r.IntN(2)))
		}
		if r.IntN(50) == 0 {
			addBatch(512)
		}
		now := base.Add(time.Duration(r.IntN(1e9)))
		// The full scan: the newest covered mark, anywhere in the set.
		retired := -1
		for i, mk := range want {
			if mk.events <= acked {
				retired = i
			}
		}
		if retired >= 0 {
			wantLat.Add(now.Sub(want[retired].sent))
			want = want[retired+1:]
		}
		c.ack(wire.Ack{Events: acked}, now)
		c.mu.Lock()
		got, lat := append([]batchMark(nil), c.marks[c.head:]...), c.ackLat
		c.mu.Unlock()
		if len(got) != len(want) || (len(got) > 0 && got[0] != want[0]) || lat != wantLat {
			t.Fatalf("ack %d: %d marks outstanding, want %d (or a different latency sample)", acked, len(got), len(want))
		}
	}
}

// BenchmarkClientAckIngest is the ack path of the client's reader:
// decode an Ack frame, retire the mark it covers and record the round
// trip, a block of marks at a time. Once the mark array has its
// working size, neither adding marks nor ingesting acks may allocate.
func BenchmarkClientAckIngest(b *testing.B) {
	const block = 64
	c, acks := ackClient(b)
	round := func() {
		addMarks(c, block)
		acks(c.sent, block)
		waitAcked(b, c, c.sent)
	}
	round()
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += block {
		round()
	}
}
