package ipdsclient

import (
	"fmt"
	"io"
	"net"
	"runtime"
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
	cli, srv := net.Pipe()
	go func() {
		if _, err := wire.NewReader(srv).Next(); err != nil {
			return
		}
		srv.Write(wire.MustAppend(nil, wire.HelloAck{Version: wire.Version, MaxBatch: wire.MaxBatch}))
		io.Copy(io.Discard, srv)
	}()
	c, err := DialConn(cli, cfg)
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

func TestAlarmRecIs24Bytes(t *testing.T) {
	if n := unsafe.Sizeof(alarmRec{}); n != 24 {
		t.Fatalf("alarmRec is %d bytes, want 24", n)
	}
}

// TestAlarmLogRoundTrip sends alarm streams around the chunk
// boundaries through the client's reader and checks that Alarms()
// returns them field for field in delivery order, with one latency
// sample per alarm a batch mark covers.
func TestAlarmLogRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, chunkLen - 1, chunkLen, chunkLen + 1, 3*chunkLen + 5} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			c, srv := pipeClient(t, Config{})
			// One mark covering every alarm's Seq, so each alarm takes a
			// latency sample.
			batch := wire.AppendBatches(nil, []wire.Event{{Kind: wire.EvBranch, PC: 0x40}}, 1)
			if err := c.SendEncoded(batch, 1, uint64(n)+1); err != nil {
				t.Fatal(err)
			}
			want := make([]wire.Alarm, n)
			for i := range want {
				want[i] = sampleAlarm(i, 300)
			}
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
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("alarm %d: got %+v, want %+v", i, got[i], want[i])
				}
			}
			_, lat := c.Latencies()
			if len(lat) != n || (n == 0) != (lat == nil) {
				t.Fatalf("%d latency samples (nil %v), want %d", len(lat), lat == nil, n)
			}
		})
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
// other's appends, with the source's last chunk full or partial.
func TestAlarmLogFork(t *testing.T) {
	for _, n := range []int{0, 5, chunkLen, chunkLen + 5} {
		var src alarmLog
		for i := 0; i < n; i++ {
			a := sampleAlarm(i, 10)
			src.add(a, []byte(a.Func))
			src.lat.add(time.Duration(i))
		}
		before, beforeLat := src.alarms(), src.latencies()
		fork := src.fork()
		for i := n; i < n+chunkLen+3; i++ {
			a := sampleAlarm(i, 20)
			fork.add(a, []byte(a.Func))
			fork.lat.add(time.Duration(-i))
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
// decode, intern, record, latency sample. The log allocates one chunk
// per chunkLen alarms, which amortises to 0 allocs/op.
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
}
