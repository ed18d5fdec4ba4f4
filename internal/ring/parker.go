package ring

import (
	"sync/atomic"
	"time"
)

// Parker is the wait half of the per-core serve loops: a goroutine
// that finds its rings empty (or full) blocks here until the opposite
// side publishes more work (or frees a slot). It is a one-slot wake
// channel plus a "parked" flag, with a protocol that makes the classic
// lost-wakeup race impossible:
//
//	sleeper:                      waker:
//	  Prepare()   (parked = true)   ...publish work...
//	  re-check work                 Wake()  (signal iff parked)
//	  Park() / Cancel()
//
// Go's sync/atomic operations are sequentially consistent, so in the
// total order either the waker's parked-flag load observes Prepare —
// and Wake signals the channel — or it precedes Prepare, in which case
// the work it published precedes the sleeper's re-check, which then
// sees the work and Cancels. Either way the sleeper cannot block on
// work that has already arrived.
//
// Any number of goroutines may Wake; exactly one may sleep
// (Prepare/Cancel/Park). The Parks, Wakes and ParkedNs counters are
// readable from anywhere.
type Parker struct {
	wake     chan struct{}
	parked   atomic.Bool
	parks    atomic.Uint64
	wakes    atomic.Uint64
	parkedNs atomic.Uint64
}

// NewParker returns a ready Parker.
func NewParker() *Parker {
	return &Parker{wake: make(chan struct{}, 1)}
}

// Prepare announces intent to park. The sleeper must re-check its work
// condition between Prepare and Park, and call Cancel instead of Park
// if work appeared.
func (p *Parker) Prepare() { p.parked.Store(true) }

// Cancel retracts a Prepare: work was found during the re-check.
func (p *Parker) Cancel() { p.parked.Store(false) }

// Park blocks until a Wake arrives. Must be preceded by Prepare and a
// work re-check. A buffered wake from the re-check window is consumed
// here, so a spurious early return (never a lost sleep) is the worst
// case — callers loop over their work condition anyway. Only a park
// that actually blocks reads the clock, once on each side of the
// wait, to add its duration to ParkedNs.
func (p *Parker) Park() {
	select {
	case <-p.wake:
	default:
		t := time.Now()
		<-p.wake
		p.parkedNs.Add(uint64(time.Since(t)))
	}
	p.parked.Store(false)
	p.parks.Add(1)
}

// Wake unblocks the sleeper iff it is parked (or mid-Prepare). Cheap
// when nobody is parked: one atomic load.
func (p *Parker) Wake() {
	if p.parked.Load() {
		select {
		case p.wake <- struct{}{}:
			p.wakes.Add(1)
		default:
		}
	}
}

// Parks reports how many times the sleeper actually blocked.
func (p *Parker) Parks() uint64 { return p.parks.Load() }

// ParkedNs reports the total nanoseconds the sleeper spent blocked in
// Park.
func (p *Parker) ParkedNs() uint64 { return p.parkedNs.Load() }

// Wakes reports how many wake signals were delivered (not the calls to
// Wake, most of which find nobody parked and cost one load).
func (p *Parker) Wakes() uint64 { return p.wakes.Load() }
