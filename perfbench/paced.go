package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/ipdsclient"
	"repro/internal/wire"
)

// pacedPlan is the open loop: one pacing goroutine sends fixed-size
// frames on a fixed schedule, alternating over the two connections,
// through the client library's Send path. It runs in segments, one per
// cycle of the run; each segment starts on a fresh schedule once the
// closed loop before it has drained.
type pacedPlan struct {
	rate      float64 // offered events/s, both connections together
	frame     int     // events per frame
	segFrames int     // frames per segment
	warm      int     // leading frames of each segment left out of every statistic
	segments  int
}

func (p pacedPlan) total() int { return p.segFrames * p.segments }

// framesOf is how many of the plan's frames go to connection c.
func (p pacedPlan) framesOf(c int) int { return (p.total() - c + 1) / 2 }

// measured reports whether frame j counts: it is past its segment's
// warm-up.
func (p pacedPlan) measured(j int) bool { return j%p.segFrames >= p.warm }

func (p pacedPlan) measuredEvents() float64 {
	return float64(p.segments * (p.segFrames - p.warm) * p.frame)
}

// pacer drives the open loop over two tapped clients.
type pacer struct {
	plan     pacedPlan
	clients  [2]*ipdsclient.Client
	taps     [2]*tap
	streams  [2]*stream
	base     time.Time       // clock origin shared with the taps
	segStart []time.Duration // each segment's first intended send instant

	lateUs   []float64
	cpu      time.Duration // process CPU over the measured frames, until acked
	sendNs   time.Duration // time spent in Send over the measured frames
	gc       gcDelta
	segs     [][]wire.Event
	ms0, ms1 runtime.MemStats
}

// due is frame j's intended send instant, since base.
func (p *pacer) due(j int) time.Duration {
	interval := float64(time.Second) * float64(p.plan.frame) / p.plan.rate
	return p.segStart[j/p.plan.segFrames] + time.Duration(float64(j%p.plan.segFrames)*interval)
}

// segment sends the next segment on schedule and waits until the
// daemon has acked it.
func (p *pacer) segment() error {
	seg := len(p.segStart)
	p.segStart = append(p.segStart, time.Since(p.base)+time.Millisecond)
	var cpu0 time.Duration
	for k := 0; k < p.plan.segFrames; k++ {
		j := seg*p.plan.segFrames + k
		if wait := p.due(j) - time.Since(p.base); wait > 0 {
			time.Sleep(wait)
		}
		now := time.Since(p.base)
		if k == p.plan.warm {
			runtime.ReadMemStats(&p.ms0)
			cpu0 = cpuTime()
		}
		c, i := j%2, j/2
		p.segs = p.streams[c].segments(p.segs[:0], uint64(i*p.plan.frame), p.plan.frame)
		for _, s := range p.segs {
			if err := p.clients[c].Send(s...); err != nil {
				return fmt.Errorf("paced send: %w", err)
			}
		}
		if k >= p.plan.warm {
			p.lateUs = append(p.lateUs, us(now-p.due(j)))
			p.sendNs += time.Since(p.base) - now
		}
	}
	for _, c := range p.clients {
		if err := waitAcked(c); err != nil {
			return fmt.Errorf("paced: %w", err)
		}
	}
	p.cpu += cpuTime() - cpu0
	runtime.ReadMemStats(&p.ms1)
	p.gc.add(gcBetween(&p.ms0, &p.ms1))
	return nil
}

// pacedResult is what the open loop measured.
type pacedResult struct {
	ackUs, detectUs, lateUs []float64 // per measured frame / alarm
	cpuNsPerEvent           float64
	sendNsPerEvent          float64
	gc                      gcDelta // over the measured frames
	checked
}

// finish drains and closes the clients, times every measured frame
// from its intended send instant, and checks the delivered alarms.
func (p *pacer) finish(d *daemon) (pacedResult, error) {
	res := pacedResult{
		lateUs:         p.lateUs,
		cpuNsPerEvent:  float64(p.cpu) / p.plan.measuredEvents(),
		sendNsPerEvent: float64(p.sendNs) / p.plan.measuredEvents(),
		gc:             p.gc,
	}
	for c, cl := range p.clients {
		n := p.plan.framesOf(c)
		res.attempted += uint64(n)
		if err := cl.Drain(); err != nil {
			return res, fmt.Errorf("paced drain %s: %w", servers[c], err)
		}
		res.failed += uint64(n - min(n, int(cl.Acked()/uint64(p.plan.frame))))
	}
	closeAll(p.clients)

	for c, t := range p.taps {
		for k := 0; k < p.plan.framesOf(c); k++ {
			if j := 2*k + c; p.plan.measured(j) && t.ackAt[k] != 0 {
				res.ackUs = append(res.ackUs, us(time.Duration(t.ackAt[k])-p.due(j)))
			}
		}
		for _, h := range t.alarms {
			if j := 2*h.frame + c; p.plan.measured(j) {
				res.detectUs = append(res.detectUs, us(time.Duration(h.at)-p.due(j)))
			}
		}
	}

	res.check(d, p.clients, p.streams, func(_ int, pos uint64) uint64 { return pos / uint64(p.plan.frame) })
	return res, nil
}

// waitAcked blocks until the daemon has acked everything c sent.
func waitAcked(c *ipdsclient.Client) error {
	deadline := time.Now().Add(60 * time.Second)
	for c.Acked() < c.Sent() {
		select {
		case <-c.Done():
			return fmt.Errorf("session ended with %d/%d events acked", c.Acked(), c.Sent())
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out with %d/%d events acked", c.Acked(), c.Sent())
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
