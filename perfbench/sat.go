package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/ipdsclient"
	"repro/internal/wire"
)

// satFrame is the closed loop's events per frame, as `ipdsload` sends.
const satFrame = 512

// traceEvery stamps every traceEvery-th frame of a traced block with
// the wire trace extension.
const traceEvery = 16

// satPlan is the closed loop: each connection has one sender goroutine
// that writes pre-encoded blocks back to back (SendEncoded, as RunLoad
// does), so the next write waits for the previous one. It runs in
// short rounds, several per cycle of the run.
type satPlan struct {
	warmBlocks int // per connection, before the first round
	blocks     int // per connection per round
	rounds     int // per cycle; even, so traced rounds pair up
	traced     bool
}

// encodedStream is one connection's pre-encoded frames.
type encodedStream struct {
	lead, block, traced []byte
	blockFrames         int
}

func encodeStream(s *stream) encodedStream {
	e := encodedStream{
		lead:        wire.AppendBatches(nil, s.lead, satFrame),
		block:       wire.AppendBatches(nil, s.block, satFrame),
		blockFrames: (len(s.block) + satFrame - 1) / satFrame,
	}
	for f := 0; f < e.blockFrames; f++ {
		lo := f * satFrame
		hi := min(lo+satFrame, len(s.block))
		b := wire.Batch{Events: s.block[lo:hi]}
		if f%traceEvery == 0 {
			b.TraceID = uint64(f + 1)
		}
		e.traced = wire.MustAppend(e.traced, b)
	}
	return e
}

// closedLoop drives the closed loop over two clients.
type closedLoop struct {
	plan    satPlan
	clients [2]*ipdsclient.Client
	streams [2]*stream
	enc     [2]encodedStream
	blocks  int // sent per connection so far

	// rates are the events/s of untraced rounds; tracedRates those of
	// traced rounds, each following an untraced one.
	rates, tracedRates []float64
	wall               time.Duration // summed round time
	probe              *hostProbe
	probes             []float64 // host probe beside each untraced round, ns/event
}

func newClosedLoop(p satPlan, clients [2]*ipdsclient.Client, streams [2]*stream, probe *hostProbe) *closedLoop {
	l := &closedLoop{plan: p, clients: clients, streams: streams, probe: probe}
	for i, s := range streams {
		l.enc[i] = encodeStream(s)
	}
	return l
}

// send writes n blocks on every connection, one goroutine each, and
// returns once the daemon has acked all of them. The first call sends
// the lead first.
func (l *closedLoop) send(n int, traced bool) error {
	lead := l.blocks == 0
	var wg sync.WaitGroup
	errs := make([]error, len(l.clients))
	for i := range l.clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, e, s := l.clients[i], l.enc[i], l.streams[i]
			if lead {
				if err := c.SendEncoded(e.lead, uint64(len(s.lead)), 0); err != nil {
					errs[i] = err
					return
				}
			}
			blk := e.block
			if traced {
				blk = e.traced
			}
			for b := 0; b < n; b++ {
				if err := c.SendEncoded(blk, uint64(len(s.block)), s.blockBranches); err != nil {
					errs[i] = err
					return
				}
			}
			errs[i] = waitAcked(c)
		}(i)
	}
	wg.Wait()
	l.blocks += n
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("closed loop %s: %w", servers[i], err)
		}
	}
	return nil
}

// warm sends the lead and the warm-up blocks, untimed.
func (l *closedLoop) warm() error { return l.send(l.plan.warmBlocks, false) }

// cycle runs one cycle's rounds, timing each.
func (l *closedLoop) cycle() error {
	roundEvents := float64(l.plan.blocks * (len(l.streams[0].block) + len(l.streams[1].block)))
	for r := 0; r < l.plan.rounds; r++ {
		traced := l.plan.traced && r%2 == 1
		pr := l.probe.sample()
		t0 := time.Now()
		if err := l.send(l.plan.blocks, traced); err != nil {
			return err
		}
		el := time.Since(t0)
		l.wall += el
		if traced {
			l.tracedRates = append(l.tracedRates, roundEvents/el.Seconds())
		} else {
			l.rates = append(l.rates, roundEvents/el.Seconds())
			l.probes = append(l.probes, pr)
		}
	}
	return nil
}

// satResult is what the closed loop measured.
type satResult struct {
	rates, tracedRates []float64
	probes             []float64
	wall               time.Duration
	checked
}

// finish drains, closes and checks the clients.
func (l *closedLoop) finish(d *daemon) (satResult, error) {
	res := satResult{rates: l.rates, tracedRates: l.tracedRates, probes: l.probes, wall: l.wall}
	for i, c := range l.clients {
		frames := 1 + uint64(l.blocks)*uint64(l.enc[i].blockFrames)
		res.attempted += frames
		if err := c.Drain(); err != nil {
			return res, fmt.Errorf("closed loop drain %s: %w", servers[i], err)
		}
		if c.Acked() != c.Sent() {
			res.failed += frames - satFrameOf(l.streams[i], l.enc[i], c.Acked())
		}
	}
	closeAll(l.clients)

	res.check(d, l.clients, l.streams, func(i int, pos uint64) uint64 { return satFrameOf(l.streams[i], l.enc[i], pos) })
	return res, nil
}

// satFrameOf maps a stream position to its closed-loop frame: the lead
// frame, then each block cut into satFrame-event frames.
func satFrameOf(s *stream, e encodedStream, pos uint64) uint64 {
	if pos < uint64(len(s.lead)) {
		return 0
	}
	p := pos - uint64(len(s.lead))
	b, r := p/uint64(len(s.block)), p%uint64(len(s.block))
	return 1 + b*uint64(e.blockFrames) + r/satFrame
}
