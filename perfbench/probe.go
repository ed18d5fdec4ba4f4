package main

import (
	"time"

	"repro/internal/wire"
)

// The host probe. On a shared host, neighbours on the sibling
// hardware threads slow branchy code by up to 2x for seconds to tens
// of minutes at a time, while plain arithmetic loops barely notice.
// The probe is a frozen stand-in for the verification kernel that
// lives here, not in the program, so no change to the program moves
// it: it walks a captured trace with data-dependent but learnable
// branches and small-table lookups. A probe sample taken beside each
// measurement says how fast the host ran the program's kind of code
// at that moment.

// probeRefNs is the probe's ns/event on a quiet 2-vCPU KVM guest: the
// speed normalized figures are scaled to.
const probeRefNs = 2.5

// probeEvents is how many trace events one probe sample walks (~1 ms).
const probeEvents = 400_000

// hostProbe walks one trace; its state persists across samples so
// every sample after the first runs warm.
type hostProbe struct {
	evs   []wire.Event
	state [1 << 12]uint8
	sink  uint64
}

// sample walks probeEvents events and returns ns per event.
func (p *hostProbe) sample() float64 {
	t0 := time.Now()
	n := 0
	for n < probeEvents {
		p.walk()
		n += len(p.evs)
	}
	return float64(time.Since(t0)) / float64(n)
}

func (p *hostProbe) walk() {
	depth, miss := 0, uint64(0)
	for i := range p.evs {
		e := &p.evs[i]
		switch e.Kind {
		case wire.EvEnter:
			depth++
		case wire.EvLeave:
			depth--
		case wire.EvBranch:
			h := (uint32(e.PC) * 2654435761) >> 20
			s := p.state[h]
			if (s >= 2) != e.Taken {
				miss++
			}
			if e.Taken {
				if s < 3 {
					p.state[h] = s + 1
				}
			} else if s > 0 {
				p.state[h] = s - 1
			}
		}
	}
	p.sink += miss + uint64(depth)
}

// scaled returns each of xs scaled to the reference host speed by the
// probe sample taken beside it: rates (sign 1) grow and times (sign
// -1) shrink by how much slower than the reference the host ran.
func scaled(xs, probes []float64, sign int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		f := probes[i] / probeRefNs
		if sign < 0 {
			f = 1 / f
		}
		out[i] = x * f
	}
	return out
}
