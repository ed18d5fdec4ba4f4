package ring

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{
		{1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {63, 64}, {64, 64}, {65, 128},
	} {
		if got := New[int](tc.ask).Cap(); got != tc.want {
			t.Errorf("New(%d).Cap() = %d, want %d", tc.ask, got, tc.want)
		}
	}
}

// TestWraparound pushes and pops far past the capacity so every slot
// is reused many times and the masked indexes wrap uint64 arithmetic.
func TestWraparound(t *testing.T) {
	r := New[int](4)
	next := 0
	for i := 0; i < 1000; i++ {
		if !r.TryPush(i) {
			t.Fatalf("push %d refused on a non-full ring", i)
		}
		if i%3 == 2 { // drain in a different rhythm than the fill
			for r.Len() > 0 {
				v, ok := r.TryPop()
				if !ok {
					t.Fatal("pop refused on a non-empty ring")
				}
				if v != next {
					t.Fatalf("popped %d, want %d (FIFO violated)", v, next)
				}
				next++
			}
		}
	}
	for {
		v, ok := r.TryPop()
		if !ok {
			break
		}
		if v != next {
			t.Fatalf("popped %d, want %d", v, next)
		}
		next++
	}
	if next != 1000 {
		t.Fatalf("drained %d items, want 1000", next)
	}
}

func TestFullEmpty(t *testing.T) {
	r := New[int](4)
	if _, ok := r.TryPop(); ok {
		t.Fatal("popped from an empty ring")
	}
	for i := 0; i < r.Cap(); i++ {
		if !r.TryPush(i) {
			t.Fatalf("push %d refused below capacity", i)
		}
	}
	if r.TryPush(99) {
		t.Fatal("push accepted on a full ring")
	}
	if got := r.Len(); got != r.Cap() {
		t.Fatalf("Len = %d, want %d", got, r.Cap())
	}
	if got := r.HighWater(); got != r.Cap() {
		t.Fatalf("HighWater = %d, want %d", got, r.Cap())
	}
	for i := 0; i < r.Cap(); i++ {
		v, ok := r.TryPop()
		if !ok || v != i {
			t.Fatalf("pop %d: got (%d,%v)", i, v, ok)
		}
	}
	if _, ok := r.TryPop(); ok {
		t.Fatal("popped from a drained ring")
	}
	// Full/empty again after wrap: the indexes are now mid-range.
	if !r.TryPush(7) {
		t.Fatal("push refused after drain")
	}
	if v, ok := r.TryPop(); !ok || v != 7 {
		t.Fatalf("got (%d,%v), want (7,true)", v, ok)
	}
}

func TestPushSlicePartial(t *testing.T) {
	r := New[int](4)
	in := []int{1, 2, 3, 4, 5, 6}
	if n := r.PushSlice(in); n != 4 {
		t.Fatalf("PushSlice took %d, want 4", n)
	}
	dst := make([]int, 8)
	if n := r.PopSlice(dst[:2]); n != 2 || dst[0] != 1 || dst[1] != 2 {
		t.Fatalf("PopSlice(2) = %d %v", n, dst[:2])
	}
	if n := r.PushSlice(in[4:]); n != 2 {
		t.Fatalf("PushSlice tail took %d, want 2", n)
	}
	if n := r.PopSlice(dst); n != 4 {
		t.Fatalf("PopSlice drained %d, want 4", n)
	}
	for i, want := range []int{3, 4, 5, 6} {
		if dst[i] != want {
			t.Fatalf("dst[%d] = %d, want %d", i, dst[i], want)
		}
	}
	if n := r.PushSlice(nil); n != 0 {
		t.Fatalf("PushSlice(nil) = %d", n)
	}
}

// TestPopZeroesSlots holds the ownership rule: a popped pointer must
// not stay reachable from the ring's backing array.
func TestPopZeroesSlots(t *testing.T) {
	r := New[*int](2)
	v := new(int)
	r.TryPush(v)
	r.TryPop()
	for i := range r.buf {
		if r.buf[i] != nil {
			t.Fatalf("slot %d still holds a pointer after pop", i)
		}
	}
	r.TryPush(v)
	dst := make([]*int, 1)
	r.PopSlice(dst)
	for i := range r.buf {
		if r.buf[i] != nil {
			t.Fatalf("slot %d still holds a pointer after PopSlice", i)
		}
	}
}

// TestConcurrentSPSC is the -race workout: one producer, one consumer,
// mixed single/batch operations, strict FIFO asserted for every
// element. Run with `go test -race ./internal/ring`.
func TestConcurrentSPSC(t *testing.T) {
	const total = 200_000
	r := New[int](64)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // producer
		defer wg.Done()
		batch := make([]int, 0, 7)
		i := 0
		for i < total {
			if i%5 == 0 { // batch push
				batch = batch[:0]
				for j := 0; j < 7 && i+j < total; j++ {
					batch = append(batch, i+j)
				}
				off := 0
				for off < len(batch) {
					n := r.PushSlice(batch[off:])
					off += n
					if n == 0 {
						runtime.Gosched()
					}
				}
				i += len(batch)
			} else {
				for !r.TryPush(i) {
					runtime.Gosched()
				}
				i++
			}
		}
	}()
	next := 0
	dst := make([]int, 9)
	for next < total {
		var got []int
		if next%3 == 0 {
			n := r.PopSlice(dst)
			got = dst[:n]
		} else if v, ok := r.TryPop(); ok {
			dst[0] = v
			got = dst[:1]
		}
		if len(got) == 0 {
			runtime.Gosched()
			continue
		}
		for _, v := range got {
			if v != next {
				t.Fatalf("popped %d, want %d", v, next)
			}
			next++
		}
	}
	wg.Wait()
	if r.Len() != 0 {
		t.Fatalf("ring not empty after drain: Len=%d", r.Len())
	}
	if hw := r.HighWater(); hw < 1 || hw > r.Cap() {
		t.Fatalf("HighWater = %d, want within [1,%d]", hw, r.Cap())
	}
}

// TestParkerNoLostWakeup hammers the Prepare/re-check/Park handshake:
// the consumer parks whenever the ring looks empty, the producer Wakes
// after every publish, and every element must still arrive. A lost
// wakeup deadlocks the test (caught by the timeout).
func TestParkerNoLostWakeup(t *testing.T) {
	const total = 50_000
	r := New[int](8)
	p := NewParker()
	done := make(chan struct{})
	go func() { // consumer
		defer close(done)
		next := 0
		for next < total {
			v, ok := r.TryPop()
			if !ok {
				p.Prepare()
				if r.Len() == 0 {
					p.Park()
				} else {
					p.Cancel()
				}
				continue
			}
			if v != next {
				t.Errorf("popped %d, want %d", v, next)
				return
			}
			next++
		}
	}()
	for i := 0; i < total; i++ {
		for !r.TryPush(i) {
			p.Wake() // a full ring means the consumer has work; nudge anyway
			runtime.Gosched()
		}
		p.Wake()
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("consumer never drained: lost wakeup")
	}
	if p.Parks() == 0 {
		t.Log("consumer never parked (fast host); parks=0 is legal but weakens the test")
	}
	if p.Wakes() > p.Parks()+1 {
		// Every delivered wake is consumed by exactly one Park, except
		// at most one buffered token left by a Cancel window.
		t.Fatalf("wakes %d > parks %d + 1", p.Wakes(), p.Parks())
	}
}

// TestParkerProducerNoLostWakeup is the producer-side mirror of
// TestParkerNoLostWakeup, shaped like the daemon's reader→verifier
// handoff: the producer parks on its own Parker whenever the ring is
// full, the consumer parks on another whenever it is empty, and each
// side Wakes the other's after every publish or pop. Nobody spins, so
// a lost wakeup on either side deadlocks the test (caught by the
// timeout).
func TestParkerProducerNoLostWakeup(t *testing.T) {
	const total = 50_000
	r := New[int](4)
	prod, cons := NewParker(), NewParker()
	done := make(chan struct{})
	go func() { // consumer
		defer close(done)
		dst := make([]int, 3)
		next := 0
		for next < total {
			n := r.PopSlice(dst[:1+next%3])
			if n == 0 {
				cons.Prepare()
				if r.Len() == 0 {
					cons.Park()
				} else {
					cons.Cancel()
				}
				continue
			}
			prod.Wake()
			for _, v := range dst[:n] {
				if v != next {
					t.Errorf("popped %d, want %d", v, next)
					return
				}
				next++
			}
		}
	}()
	go func() { // producer
		for i := 0; i < total; i++ {
			for !r.TryPush(i) {
				prod.Prepare()
				if r.Len() == r.Cap() {
					prod.Park()
				} else {
					prod.Cancel()
				}
			}
			cons.Wake()
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("handoff stalled: lost wakeup (producer parks %d, consumer parks %d)", prod.Parks(), cons.Parks())
	}
	t.Logf("producer parks %d, consumer parks %d", prod.Parks(), cons.Parks())
	if prod.Parks() == 0 {
		t.Log("producer never parked (fast consumer); parks=0 is legal but weakens the test")
	}
	for _, p := range []*Parker{prod, cons} {
		if p.Wakes() > p.Parks()+1 {
			t.Fatalf("wakes %d > parks %d + 1", p.Wakes(), p.Parks())
		}
	}
}

// BenchmarkParkHandoff prices one item crossing to a goroutine that
// is parked waiting for it: a ping-pong over two capacity-1 rings, so
// every item finds its consumer parked and each handoff pays a full
// Wake → unpark → pop. This is the per-frame cost a serve loop pays
// for parking as soon as it is idle instead of spinning first.
func BenchmarkParkHandoff(b *testing.B) {
	ping, pong := New[int](1), New[int](1)
	pkPing, pkPong := NewParker(), NewParker()
	// recv pops one item from r, parking on pk while r is empty.
	recv := func(r *SPSC[int], pk *Parker) int {
		for {
			if v, ok := r.TryPop(); ok {
				return v
			}
			pk.Prepare()
			if r.Len() == 0 {
				pk.Park()
			} else {
				pk.Cancel()
			}
		}
	}
	go func() { // echo
		for {
			v := recv(ping, pkPing)
			pong.TryPush(v) // capacity 1, and the bench side drained it
			pkPong.Wake()
			if v < 0 {
				return
			}
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ping.TryPush(i)
		pkPing.Wake()
		if v := recv(pong, pkPong); v != i {
			b.Fatalf("echo %d, want %d", v, i)
		}
	}
	b.StopTimer()
	ping.TryPush(-1)
	pkPing.Wake()
	recv(pong, pkPong)
	handoffs := float64(2 * b.N)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/handoffs, "ns/handoff")
	b.ReportMetric(float64(pkPing.Parks()+pkPong.Parks())/handoffs, "parks/handoff")
}

// TestParkerParkedNs: a sleeper that blocks in Park until a delayed
// Wake accumulates at least the delay in ParkedNs, while one whose
// parks never block — a Cancel after the re-check, or a Wake already
// buffered when Park runs — adds nothing.
func TestParkerParkedNs(t *testing.T) {
	const delay = 20 * time.Millisecond
	parked := NewParker()
	for i := 0; i < 3; i++ {
		parked.Prepare()
		go func() {
			time.Sleep(delay)
			parked.Wake()
		}()
		parked.Park()
	}
	if got := time.Duration(parked.ParkedNs()); got < 3*delay {
		t.Fatalf("ParkedNs = %v after three parks of ≥%v", got, delay)
	}

	busy := NewParker()
	for i := 0; i < 1000; i++ {
		busy.Prepare()
		if i%2 == 0 {
			busy.Cancel() // work showed up in the re-check
			continue
		}
		busy.Wake() // the wake lands in the re-check window
		busy.Park()
	}
	if busy.Parks() != 500 {
		t.Fatalf("Parks = %d, want 500", busy.Parks())
	}
	if ns := busy.ParkedNs(); ns != 0 {
		t.Fatalf("ParkedNs = %d for parks that never blocked", ns)
	}
}
