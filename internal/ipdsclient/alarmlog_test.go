package ipdsclient

import (
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/wire"
)

// pipeClient dials a Client over net.Pipe against a stub daemon that
// answers the handshake and then discards whatever the client sends.
// It returns the daemon's end of the pipe, for writing server frames.
func pipeClient(tb testing.TB, cfg Config) (*Client, net.Conn) {
	tb.Helper()
	return pipeDial(tb, cfg, nil)
}

// pipeDial is pipeClient resuming from prev, when non-nil, as Redial
// does: the new client carries prev's alarms (a fork of its log) and
// keeps their Seqs (bases 0).
func pipeDial(tb testing.TB, cfg Config, prev *Client) (*Client, net.Conn) {
	tb.Helper()
	cli, srv := net.Pipe()
	go func() {
		if _, err := wire.NewReader(srv).Next(); err != nil {
			return
		}
		srv.Write(wire.MustAppend(nil, wire.HelloAck{Version: wire.Version, MaxBatch: wire.MaxBatch}))
		io.Copy(io.Discard, srv)
	}()
	c, err := dialConn(cli, cfg.withDefaults(), prev, 0, 0)
	if err != nil {
		tb.Fatalf("dial: %v", err)
	}
	tb.Cleanup(func() {
		srv.Close()
		c.Close()
	})
	return c, srv
}

// sampleAlarm is the i-th alarm of a synthetic stream whose function
// names cycle through the given number of distinct names.
func sampleAlarm(i, names int) wire.Alarm {
	return wire.Alarm{
		Seq:      uint64(i + 1),
		PC:       0x40 + uint64(i)*4,
		Func:     fmt.Sprintf("fn%d", i%names),
		Slot:     uint32(i % 97),
		Expected: uint8(i % 3),
		Taken:    i%2 == 1,
	}
}

// encodeAlarms encodes alarms as one block of Alarm frames.
func encodeAlarms(tb testing.TB, alarms []wire.Alarm) []byte {
	tb.Helper()
	var out []byte
	for _, a := range alarms {
		var err error
		if out, err = wire.AppendAlarm(out, a); err != nil {
			tb.Fatal(err)
		}
	}
	return out
}

// waitAlarms waits until c holds n alarms.
func waitAlarms(tb testing.TB, c *Client, n int) {
	tb.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.AlarmCount() < n {
		if time.Now().After(deadline) {
			tb.Fatalf("client holds %d alarms, want %d", c.AlarmCount(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// seal seals every full block of l in the calling goroutine, as the
// client's reader does after each alarm (there outside its lock).
func (l *alarmLog) seal() {
	for b, ok := l.full(); ok; b, ok = l.full() {
		l.sealed(sealBlock(&b))
	}
}

// fillAlarms returns how many alarms of the sampleAlarm stream over the
// given name count fill a sealing log's first k chunks: the alarm after
// them starts chunk k+1, and at k = blockChunks seals the first block.
// With lat, each alarm carries a latency sample i ns.
func fillAlarms(names, k int, lat bool) int {
	var l alarmLog
	for i := 0; ; i++ {
		a := sampleAlarm(i, names)
		l.add(a, []byte(a.Func), time.Duration(i), lat)
		l.seal()
		if len(l.blocks)*blockChunks+len(l.chunks) > k {
			return i
		}
	}
}

// sampleAlarms returns alarms i of the sampleAlarm stream for i in
// [from, to).
func sampleAlarms(from, to, names int) []wire.Alarm {
	out := make([]wire.Alarm, 0, to-from)
	for i := from; i < to; i++ {
		out = append(out, sampleAlarm(i, names))
	}
	return out
}

// sameAlarms fails tb unless got holds want field for field.
func sameAlarms(tb testing.TB, what string, got, want []wire.Alarm) {
	tb.Helper()
	if len(got) != len(want) {
		tb.Fatalf("%s: %d alarms, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			tb.Fatalf("%s: alarm %d = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// TestAlarmLogRoundTrip sends alarm streams that end short of, at and
// past chunk and block boundaries through the client's reader and
// checks that Alarms() returns them field for field in delivery order.
// A marked stream has one batch mark covering every alarm, so each
// takes a latency sample; its samples are clock readings, so its
// boundaries are those of the unmarked stream give or take a few
// alarms. A redial then forks the log, before or after its seals, and
// appends past a seal on the new session, which must not show through
// the old one.
func TestAlarmLogRoundTrip(t *testing.T) {
	for _, marked := range []bool{true, false} {
		fill, block := fillAlarms(300, 1, marked), fillAlarms(300, blockChunks, marked)
		for _, n := range []int{0, 1, 4095, 4096, 4097, 12293, fill - 1, fill, fill + 1, 3*fill + 5,
			block - 1, block, block + 1, 3*block + 5} {
			name := fmt.Sprint(n)
			if !marked {
				name = fmt.Sprint("unmarked-", n)
			}
			t.Run(name, func(t *testing.T) {
				c, srv := pipeClient(t, Config{})
				lats := 0
				if marked {
					batch := wire.AppendBatches(nil, []wire.Event{{Kind: wire.EvBranch, PC: 0x40}}, 1)
					if err := c.SendEncoded(batch, 1, uint64(n)+1); err != nil {
						t.Fatal(err)
					}
					lats = n
				}
				want := sampleAlarms(0, n, 300)
				if n > 0 {
					if _, err := srv.Write(encodeAlarms(t, want)); err != nil {
						t.Fatal(err)
					}
				}
				waitAlarms(t, c, n)
				got := c.Alarms()
				if got == nil || len(got) != n || c.AlarmCount() != len(got) {
					t.Fatalf("Alarms() = %d alarms (nil %v), AlarmCount %d, want %d", len(got), got == nil, c.AlarmCount(), n)
				}
				sameAlarms(t, "Alarms()", got, want)
				_, lat := c.Latencies()
				if len(lat) != lats || (lats == 0) != (lat == nil) {
					t.Fatalf("%d latency samples (nil %v), want %d", len(lat), lat == nil, lats)
				}

				c2, srv2 := pipeDial(t, Config{}, c)
				more := sampleAlarms(n, n+block+3, 300)
				if _, err := srv2.Write(encodeAlarms(t, more)); err != nil {
					t.Fatal(err)
				}
				waitAlarms(t, c2, n+len(more))
				sameAlarms(t, "redialled Alarms()", c2.Alarms(), append(want, more...))
				sameAlarms(t, "Alarms() after the redial", c.Alarms(), want)
				if _, lat2 := c2.Latencies(); len(lat2) != lats {
					t.Fatalf("redialled client holds %d latency samples, want %d", len(lat2), lats)
				}
			})
		}
	}
}

// TestAlarmLogNames covers name interning at the edges: an empty name,
// a MaxString name, and many distinct names sharing the table.
func TestAlarmLogNames(t *testing.T) {
	var (
		mu   sync.Mutex
		seen []string
	)
	c, srv := pipeClient(t, Config{OnAlarm: func(a wire.Alarm) {
		mu.Lock()
		seen = append(seen, a.Func)
		mu.Unlock()
	}})
	long := strings.Repeat("x", wire.MaxString)
	var want []wire.Alarm
	distinct := map[string]bool{}
	for i := 0; i < 5000; i++ {
		a := sampleAlarm(i, 2500)
		switch {
		case i%1000 == 7:
			a.Func = ""
		case i%1000 == 11:
			a.Func = long
		case i%4 == 2 || i%4 == 3:
			a.Func = want[i-1].Func // runs of one name, as a flood sends them
		}
		want = append(want, a)
		distinct[a.Func] = true
	}
	if _, err := srv.Write(encodeAlarms(t, want)); err != nil {
		t.Fatal(err)
	}
	waitAlarms(t, c, len(want))
	got := c.Alarms()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("alarm %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	c.mu.Lock()
	names := len(c.alarms.names)
	c.mu.Unlock()
	if names != len(distinct) {
		t.Fatalf("name table holds %d names, want %d", names, len(distinct))
	}
	// OnAlarm saw the interned name: the very string Alarms() returns.
	// It runs after the alarm is logged, so wait for the last call.
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		n := len(seen)
		mu.Unlock()
		if n == len(want) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("OnAlarm saw %d alarms, want %d", n, len(want))
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, s := range seen {
		if s != got[i].Func || unsafe.StringData(s) != unsafe.StringData(got[i].Func) {
			t.Fatalf("alarm %d: OnAlarm saw %q, not the interned %q", i, s, got[i].Func)
		}
	}
}

// TestAlarmLogNameBound feeds one more distinct function name than the
// table holds: the session must end with a reader error, keeping the
// alarms before it, never panicking or growing past the bound.
func TestAlarmLogNameBound(t *testing.T) {
	c, srv := pipeClient(t, Config{})
	alarms := make([]wire.Alarm, maxNames+1)
	for i := range alarms {
		alarms[i] = sampleAlarm(i, len(alarms))
	}
	// The reader stops mid-block, so the write only returns once the
	// pipe is closed.
	go srv.Write(encodeAlarms(t, alarms))
	select {
	case <-c.Done():
	case <-time.After(20 * time.Second):
		t.Fatal("session survived a name table overflow")
	}
	c.mu.Lock()
	err, names := c.readerErr, len(c.alarms.names)
	c.mu.Unlock()
	if err == nil || !strings.Contains(err.Error(), "distinct functions") {
		t.Fatalf("reader error = %v, want the name bound", err)
	}
	if names != maxNames || c.AlarmCount() != maxNames {
		t.Fatalf("%d names, %d alarms kept; want %d of each", names, c.AlarmCount(), maxNames)
	}
}

// TestAlarmLogFork checks that a fork and its source never see each
// other's appends, with the source's last chunk full or partial, before
// and after seals, and with a full block not yet sealed — a Redial can
// fork between the reader's append and its seal. The fork then appends
// past a seal of its own.
func TestAlarmLogFork(t *testing.T) {
	fill, block := fillAlarms(10, 1, true), fillAlarms(10, blockChunks, true)
	for _, n := range []int{0, 5, fill, fill + 5, block, block + 1, 2*block + 7} {
		var src alarmLog
		for i := 0; i < n; i++ {
			a := sampleAlarm(i, 10)
			src.add(a, []byte(a.Func), time.Duration(i), true)
			if i < n-1 {
				src.seal()
			}
		}
		before, beforeLat := src.alarms(), src.latencies()
		fork := src.fork()
		src.seal()
		for i := n; i < n+block+3; i++ {
			a := sampleAlarm(i, 20)
			fork.add(a, []byte(a.Func), time.Duration(-i), true)
			fork.seal()
		}
		if got := src.alarms(); len(got) != len(before) || len(src.names) > 10 {
			t.Fatalf("n=%d: source holds %d alarms, %d names after the fork grew", n, len(got), len(src.names))
		}
		for i, a := range src.alarms() {
			if a != before[i] {
				t.Fatalf("n=%d: source alarm %d changed to %+v", n, i, a)
			}
		}
		for i, d := range src.latencies() {
			if d != beforeLat[i] {
				t.Fatalf("n=%d: source latency %d changed to %v", n, i, d)
			}
		}
		got := fork.alarms()
		for i := range got {
			want := sampleAlarm(i, 10)
			if i >= n {
				want = sampleAlarm(i, 20)
			}
			if got[i] != want {
				t.Fatalf("n=%d: fork alarm %d = %+v, want %+v", n, i, got[i], want)
			}
		}
	}
}

// BenchmarkClientAlarmIngest is the alarm path's allocation gate: one
// op is one pre-encoded Alarm frame through the client's reader —
// decode, intern, record, latency sample. The log allocates one
// chunkBytes chunk per several thousand alarms and a sealed block per
// blockChunks of them, which amortises to 0 allocs/op. It reports the
// blocks the run sealed, which the gate holds to at least 4.
func BenchmarkClientAlarmIngest(b *testing.B) {
	c, srv := pipeClient(b, Config{})
	const block = 64
	alarms := make([]wire.Alarm, block)
	for i := range alarms {
		alarms[i] = sampleAlarm(i, 8)
	}
	frames := encodeAlarms(b, alarms)
	batch := wire.AppendBatches(nil, []wire.Event{{Kind: wire.EvBranch, PC: 0x40}}, 1)
	if err := c.SendEncoded(batch, 1, block); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(frames) / block))
	b.ReportAllocs()
	b.ResetTimer()
	for sent := 0; sent < b.N; sent += block {
		if _, err := srv.Write(frames); err != nil {
			b.Fatal(err)
		}
	}
	for want := (b.N + block - 1) / block * block; c.AlarmCount() < want; {
		runtime.Gosched()
	}
	b.StopTimer()
	// The last block's seal may still be in flight; count what landed.
	c.mu.Lock()
	b.ReportMetric(float64(len(c.alarms.blocks)), "seals")
	c.mu.Unlock()
}

// mapEntryBytes is an upper bound on one map entry's retained size
// (slots, control bytes and growth slack) for the log's small key and
// value types, used by footprint. Maps of up to 65,536 such entries
// measured 14–61 bytes per entry with Go 1.24.
const mapEntryBytes = 64

// footprint returns the bytes the log retains: its sealed blocks, open
// chunks, tables and names, with each map entry counted at the
// mapEntryBytes bound.
func (l *alarmLog) footprint() int {
	const ptr, str, slice = 8, 16, 24
	b := len(l.chunks)*chunkBytes + cap(l.chunks)*ptr + cap(l.blocks)*slice
	for _, z := range l.blocks {
		b += cap(z)
	}
	b += cap(l.sigs)*int(unsafe.Sizeof(signal{})) + len(l.sigIDs)*mapEntryBytes
	b += cap(l.names)*str + len(l.ids)*mapEntryBytes
	for _, s := range l.names {
		b += len(s)
	}
	return b
}

// TestAlarmLogBytesPerAlarm holds the log's retained bytes per alarm
// (footprint, not MemStats) to budgets on three streams: a flood shaped
// like a tampered session's, the same flood looping one pattern as a
// session that replays one tampered block raises it, and an adversarial
// stream with nothing to compress and more distinct signals than the
// table holds. All must also decode back to the alarms that went in.
func TestAlarmLogBytesPerAlarm(t *testing.T) {
	const n = 1_000_000
	// flood: 8 signals, Seq gaps of ~150, a latency sample on every
	// alarm that changes once per 64 alarms.
	flood := func(r *rand.Rand, a *wire.Alarm, lat *time.Duration, i int) bool {
		k := uint64(r.IntN(8))
		*a = wire.Alarm{Seq: a.Seq + 140 + uint64(r.IntN(21)), PC: 0x400 + 4*k, Func: "handler",
			Slot: uint32(k), Expected: uint8(k % 3), Taken: k%2 == 1}
		if i%64 == 0 {
			*lat = time.Duration(200_000 + r.IntN(100_000))
		}
		return true
	}
	// repeating: the flood's first 1,000 alarms replayed pass after
	// pass, each pass 1,000 gaps later; the latency sample still takes
	// a fresh value once per 64 alarms.
	pattern := make([]wire.Alarm, 1000)
	var plat time.Duration
	pr := rand.New(rand.NewPCG(3, 4))
	for i := range pattern {
		if i > 0 {
			pattern[i] = pattern[i-1]
		}
		flood(pr, &pattern[i], &plat, i)
	}
	pass := pattern[len(pattern)-1].Seq + 150
	repeating := func(r *rand.Rand, a *wire.Alarm, lat *time.Duration, i int) bool {
		*a = pattern[i%len(pattern)]
		a.Seq += uint64(i/len(pattern)) * pass
		if i%64 == 0 {
			*lat = time.Duration(200_000 + r.IntN(100_000))
		}
		return true
	}
	// adversarial: random 64-bit Seq, PC, Slot and latency, arbitrary
	// Expected, a sample on half the alarms.
	adversarial := func(r *rand.Rand, a *wire.Alarm, lat *time.Duration, i int) bool {
		*a = wire.Alarm{Seq: r.Uint64(), PC: r.Uint64(), Func: fmt.Sprint("fn", r.IntN(4)),
			Slot: r.Uint32(), Expected: uint8(r.Uint32()), Taken: r.IntN(2) == 1}
		*lat = time.Duration(r.Uint64())
		return r.IntN(2) == 1
	}
	for _, tc := range []struct {
		name   string
		gen    func(*rand.Rand, *wire.Alarm, *time.Duration, int) bool
		budget float64
		sigs   int
	}{
		{"flood", flood, 2.5, 8},
		{"repeating", repeating, 0.5, 8},
		{"adversarial", adversarial, 48, maxSignals},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var (
				l   alarmLog
				a   wire.Alarm
				lat time.Duration
			)
			r := rand.New(rand.NewPCG(1, 2))
			for i := 0; i < n; i++ {
				hasLat := tc.gen(r, &a, &lat, i)
				if _, err := l.add(a, []byte(a.Func), lat, hasLat); err != nil {
					t.Fatal(err)
				}
				l.seal()
			}
			// unsealed counts every sealed block at its raw size.
			foot, unsealed := l.footprint(), l.footprint()
			for _, z := range l.blocks {
				unsealed += blockBytes - cap(z)
			}
			per := float64(foot) / n
			t.Logf("%d alarms, %d signals, %d sealed blocks: %.2f bytes per alarm, %.2f unsealed (%.2fx)",
				n, len(l.sigs), len(l.blocks), per, float64(unsealed)/n, float64(unsealed)/float64(foot))
			if per > tc.budget {
				t.Errorf("log retains %.2f bytes per alarm, budget %v", per, tc.budget)
			}
			if len(l.sigs) != tc.sigs {
				t.Errorf("signal table holds %d signals, want %d", len(l.sigs), tc.sigs)
			}
			// Decode and compare against the regenerated stream.
			got, lats := l.alarms(), l.latencies()
			r = rand.New(rand.NewPCG(1, 2))
			a, lat = wire.Alarm{}, 0
			nl := 0
			for i := range got {
				hasLat := tc.gen(r, &a, &lat, i)
				if got[i] != a {
					t.Fatalf("alarm %d = %+v, want %+v", i, got[i], a)
				}
				if hasLat {
					if lats[nl] != lat {
						t.Fatalf("latency %d = %v, want %v", nl, lats[nl], lat)
					}
					nl++
				}
			}
			if len(got) != n || nl != len(lats) {
				t.Fatalf("decoded %d alarms and %d latencies, want %d and %d", len(got), len(lats), n, nl)
			}
		})
	}
}

// TestAlarmsListOutsideLock lists a large log over and over while the
// server sends acks: each ack must be taken in well under the time one
// listing takes, since Alarms() decodes after releasing the client's
// lock. Under -race it also checks that decoding a snapshot while the
// reader appends is race-free.
func TestAlarmsListOutsideLock(t *testing.T) {
	c, srv := pipeClient(t, Config{})
	const n = 1 << 19
	c.mu.Lock()
	for i := 0; i < n; i++ {
		a := wire.Alarm{Seq: uint64(i) * 150, PC: 0x400 + 4*uint64(i%8), Func: "handler", Slot: uint32(i % 8)}
		if _, err := c.alarms.add(a, []byte(a.Func), time.Duration(i/64), true); err != nil {
			c.mu.Unlock()
			t.Fatal(err)
		}
	}
	c.mu.Unlock()
	// The fastest of three listings: the first pays for fresh pages.
	list := time.Hour
	for range 3 {
		start := time.Now()
		if got := len(c.Alarms()); got != n {
			t.Fatalf("Alarms() listed %d alarms, want %d", got, n)
		}
		list = min(list, time.Since(start))
	}

	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if got := len(c.Alarms()); got < n {
				t.Errorf("Alarms() listed %d alarms, want at least %d", got, n)
				return
			}
		}
	}()
	// Alarms arrive between the acks, so the lister's snapshots race
	// the reader's appends.
	more := encodeAlarms(t, []wire.Alarm{{Seq: n * 150, PC: 0x400, Func: "handler"}})
	var waits []time.Duration
	for k := uint64(1); k <= 11; k++ {
		// Spaced out, the acks land at different points of a listing.
		time.Sleep(list / 3)
		t0 := time.Now()
		if _, err := srv.Write(append(wire.MustAppend(nil, wire.Ack{Events: k}), more...)); err != nil {
			t.Fatal(err)
		}
		for c.Acked() != k {
			runtime.Gosched()
		}
		waits = append(waits, time.Since(t0))
	}
	close(stop)
	<-done
	slices.Sort(waits)
	if med := waits[len(waits)/2]; med > list/4 {
		t.Fatalf("median ack took %v while Alarms() was listing; one listing takes %v", med, list)
	} else {
		t.Logf("median ack %v, one listing %v", med, list)
	}
}

// TestSealOutsideLock holds the process's sealer while the reader has
// a full block to seal. The reader must wait for it without the
// client's lock, so AlarmCount and Alarms answer meanwhile from the
// unsealed chunks; compressing under the lock would hang them. Once the
// sealer is released the block swaps in and decodes the same.
func TestSealOutsideLock(t *testing.T) {
	c, srv := pipeClient(t, Config{})
	block := fillAlarms(300, blockChunks, false)
	want := sampleAlarms(0, block+1, 300)
	if _, err := srv.Write(encodeAlarms(t, want[:block])); err != nil {
		t.Fatal(err)
	}
	waitAlarms(t, c, block)

	sealer.Lock()
	held := true
	defer func() {
		if held {
			sealer.Unlock()
		}
	}()
	// The last alarm starts a chunk past the first block, so the reader
	// goes on to seal it and waits for the sealer.
	if _, err := srv.Write(encodeAlarms(t, want[block:])); err != nil {
		t.Fatal(err)
	}
	listed := make(chan []wire.Alarm, 1)
	go func() {
		for c.AlarmCount() < len(want) {
			runtime.Gosched()
		}
		listed <- c.Alarms()
	}()
	select {
	case got := <-listed:
		sameAlarms(t, "Alarms() while a block waits to be sealed", got, want)
	case <-time.After(10 * time.Second):
		t.Fatal("the client's lock stayed held while a block waited for the sealer")
	}
	c.mu.Lock()
	blocks := len(c.alarms.blocks)
	c.mu.Unlock()
	if blocks != 0 {
		t.Fatalf("%d blocks sealed while the sealer was held", blocks)
	}

	sealer.Unlock()
	held = false
	deadline := time.Now().Add(10 * time.Second)
	for blocks != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("%d blocks sealed after the sealer was released, want 1", blocks)
		}
		time.Sleep(time.Millisecond)
		c.mu.Lock()
		blocks = len(c.alarms.blocks)
		c.mu.Unlock()
	}
	sameAlarms(t, "Alarms() after the seal", c.Alarms(), want)
}

// BenchmarkSealBlock is the cost of sealing one block of the
// sampleAlarm stream, which loops 64 signals and compresses, and of
// one filled with random bytes, which is kept raw.
func BenchmarkSealBlock(b *testing.B) {
	var l alarmLog
	for i := 0; len(l.chunks) <= blockChunks; i++ {
		a := sampleAlarm(i%64, 8)
		l.add(a, []byte(a.Func), time.Duration(i*997%5000), true)
	}
	loop, _ := l.full()
	var random [blockChunks]*chunk
	r := rand.New(rand.NewPCG(1, 2))
	for i := range random {
		random[i] = new(chunk)
		for j := range random[i] {
			random[i][j] = byte(r.Uint32())
		}
	}
	for _, bc := range []struct {
		name  string
		block *[blockChunks]*chunk
	}{{"loop", &loop}, {"random", &random}} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(blockBytes)
			var n int
			for range b.N {
				n = len(sealBlock(bc.block))
			}
			b.ReportMetric(float64(n), "sealed-bytes")
		})
	}
}
