// Package ring provides a single-producer/single-consumer bounded
// ring buffer and a park/wake primitive. No daemon code imports it any
// more: it stays only for perfbench's ring.handoff_ns_per_batch rung,
// and goes with that rung.
//
// Concurrency contract. An SPSC ring has exactly two parties: ONE
// producer goroutine, which may call TryPush, PushSlice, Len, Cap and
// HighWater, and ONE consumer goroutine, which may call TryPop,
// PopSlice and Len. Neither side ever blocks the other: both ends are
// a handful of plain stores plus one atomic publish, with the opposite
// index read through a goroutine-local cache so the common case
// touches no shared cache line at all. A third goroutine may call Len,
// Cap or HighWater for telemetry — those are single atomic loads and
// tolerate being racy snapshots — but must never push or pop.
//
// The head and tail words live on separate cache lines (padded), so
// the producer publishing and the consumer retiring never false-share.
// Slots freed by PopSlice/TryPop are zeroed before the head is
// published: a popped element holding pointers is unreachable from the
// ring the moment the consumer owns it, which keeps pooled objects
// collectable and ownership handoffs single-owner.
//
// Parker is the companion wait primitive: a consumer (or producer)
// that finds its ring empty (or full) announces intent with Prepare,
// re-checks its condition, and Parks; the other side calls Wake after
// publishing (or popping). The Prepare/re-check/Park order
// plus sequentially-consistent atomics make the lost-wakeup race
// impossible (see Parker).
package ring

import "sync/atomic"

// cacheLinePad separates the producer's and consumer's index words so
// the two sides never write the same cache line.
type cacheLinePad [64]byte

// SPSC is a bounded single-producer/single-consumer ring buffer. The
// zero value is not usable; call New. Capacity is rounded up to a
// power of two so index masking replaces modulo on the hot path.
type SPSC[T any] struct {
	buf  []T
	mask uint64
	_    cacheLinePad

	// Producer's cache line: tail is written by the producer and read
	// by the consumer; headCache and hw are producer-private (hw is
	// atomic only so telemetry readers can load it).
	tail      atomic.Uint64
	headCache uint64
	hw        atomic.Uint64
	_         cacheLinePad

	// Consumer's cache line: head is written by the consumer and read
	// by the producer; tailCache is consumer-private.
	head      atomic.Uint64
	tailCache uint64
	_         cacheLinePad
}

// New returns an empty ring holding at least capacity elements
// (rounded up to the next power of two; minimum 1).
func New[T any](capacity int) *SPSC[T] {
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &SPSC[T]{buf: make([]T, n), mask: uint64(n - 1)}
}

// Cap reports the ring's true (rounded) capacity.
func (r *SPSC[T]) Cap() int { return len(r.buf) }

// Len reports the current occupancy. It is exact when called by the
// producer or consumer and a racy-but-bounded snapshot from anyone
// else.
func (r *SPSC[T]) Len() int { return int(r.tail.Load() - r.head.Load()) }

// HighWater reports the maximum occupancy the producer has ever
// observed at publish time (an upper bound on true occupancy, never
// exceeding Cap). Readable from any goroutine.
func (r *SPSC[T]) HighWater() int { return int(r.hw.Load()) }

// TryPush appends v and reports true, or reports false if the ring is
// full. Producer goroutine only.
func (r *SPSC[T]) TryPush(v T) bool {
	t := r.tail.Load()
	if t-r.headCache >= uint64(len(r.buf)) {
		r.headCache = r.head.Load()
		if t-r.headCache >= uint64(len(r.buf)) {
			return false
		}
	}
	r.buf[t&r.mask] = v
	r.tail.Store(t + 1)
	if n := t + 1 - r.headCache; n > r.hw.Load() {
		r.hw.Store(n)
	}
	return true
}

// PushSlice appends as many elements of vs as fit and returns how many
// were taken, publishing them with a single tail store — the batch
// variant the server's readers use to hand one socket read's worth of
// decoded frames to a verifier in one ring operation. Producer
// goroutine only.
func (r *SPSC[T]) PushSlice(vs []T) int {
	t := r.tail.Load()
	free := uint64(len(r.buf)) - (t - r.headCache)
	if free < uint64(len(vs)) {
		r.headCache = r.head.Load()
		free = uint64(len(r.buf)) - (t - r.headCache)
	}
	n := uint64(len(vs))
	if n > free {
		n = free
	}
	if n == 0 {
		return 0
	}
	for i := uint64(0); i < n; i++ {
		r.buf[(t+i)&r.mask] = vs[i]
	}
	r.tail.Store(t + n)
	if occ := t + n - r.headCache; occ > r.hw.Load() {
		r.hw.Store(occ)
	}
	return int(n)
}

// TryPop removes and returns the oldest element, or reports false if
// the ring is empty. Consumer goroutine only.
func (r *SPSC[T]) TryPop() (T, bool) {
	var zero T
	h := r.head.Load()
	if r.tailCache == h {
		r.tailCache = r.tail.Load()
		if r.tailCache == h {
			return zero, false
		}
	}
	v := r.buf[h&r.mask]
	r.buf[h&r.mask] = zero
	r.head.Store(h + 1)
	return v, true
}

// PopSlice removes up to len(dst) elements into dst and returns how
// many were taken, retiring them with a single head store. Freed slots
// are zeroed so popped pointers have one owner. Consumer goroutine
// only.
func (r *SPSC[T]) PopSlice(dst []T) int {
	var zero T
	h := r.head.Load()
	n := uint64(len(dst))
	avail := r.tailCache - h
	if avail < n {
		r.tailCache = r.tail.Load()
		avail = r.tailCache - h
		if avail == 0 {
			return 0
		}
	}
	if n > avail {
		n = avail
	}
	for i := uint64(0); i < n; i++ {
		dst[i] = r.buf[(h+i)&r.mask]
		r.buf[(h+i)&r.mask] = zero
	}
	r.head.Store(h + n)
	return int(n)
}
