package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/ipdsclient"
	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/internal/wire"
	"repro/internal/workload"
)

// servers are the two paper servers every workload replays, one per
// connection, each against its own image. sshd is branch-dense inside a
// flat main; httpd calls a helper every ~17 events. Both PerfSession
// captures return to depth 0 on every pass. wu-ftpd's does not (711
// enters, 710 leaves), nor does the 145-event telnetd AttackSession
// `ipdsload` loops: looping either deepens the activation stack by one
// frame per pass.
var servers = [2]string{"sshd", "httpd"}

// passesPerBlock sets how many trace passes one replay block holds:
// ~47k events for sshd, ~69k for httpd, so one socket write carries
// ~100 frames in the closed loop.
const passesPerBlock = 4

// trace is one server's balanced PerfSession capture.
type trace struct {
	evs    []wire.Event
	depth1 []int // positions i ≥ 1 where the depth before evs[i] is 1 (inside main)
}

// captureTraces compiles the two servers (input generation, untimed)
// and captures their PerfSession event traces, refusing any capture
// that does not open main first and return to depth 0 at its end.
func captureTraces() ([2]*trace, error) {
	var out [2]*trace
	for i, name := range servers {
		w := workload.ByName(name)
		if w == nil {
			return out, fmt.Errorf("unknown server %q", name)
		}
		art, err := pipeline.Compile(w.Source, ir.DefaultOptions)
		if err != nil {
			return out, fmt.Errorf("compile %s: %w", name, err)
		}
		t := &trace{evs: ipdsclient.Capture(art, w.PerfSession)}
		if len(t.evs) < 2 || t.evs[0].Kind != wire.EvEnter {
			return out, fmt.Errorf("%s: trace does not open with an enter", name)
		}
		depth := 0
		for j, ev := range t.evs {
			if depth == 1 && j > 0 {
				t.depth1 = append(t.depth1, j)
			}
			switch ev.Kind {
			case wire.EvEnter:
				depth++
			case wire.EvLeave:
				depth--
			}
			if depth < 0 || (depth == 0 && j != len(t.evs)-1) {
				return out, fmt.Errorf("%s: trace leaves main before its end (event %d)", name, j)
			}
		}
		if depth != 0 || len(t.depth1) == 0 {
			return out, fmt.Errorf("%s: trace is unbalanced (final depth %d)", name, depth)
		}
		out[i] = t
	}
	return out, nil
}

// stream is one connection's event stream: a re-entry of main (lead),
// then block looped forever. block is passesPerBlock copies of the
// trace rotated to start at a seeded depth-1 position k, i.e.
// evs[k:]+evs[:k]: each copy leaves main and re-enters it, so the
// stack depth at every block boundary is exactly 1 and the stream
// reads like the looped trace with a seeded phase. Seeded flips of
// branch directions model tampering; clean streams have none.
type stream struct {
	lead          []wire.Event
	block         []wire.Event
	blockBranches uint64
	branchPos     []int32 // block position of the i-th branch in the block
	flips         int     // flipped branches per block
	maxDepth      int     // deepest activation stack anywhere in the stream
}

// newStream builds a connection's stream from a trace. flipRate is the
// share of the block's branches whose direction is flipped; the seed
// picks which, so every seed flips the same number.
func newStream(t *trace, rng *rand.Rand, flipRate float64) *stream {
	k := t.depth1[rng.Intn(len(t.depth1))]
	rot := append(append([]wire.Event(nil), t.evs[k:]...), t.evs[:k]...)
	s := &stream{
		lead:  []wire.Event{{Kind: wire.EvEnter, PC: t.evs[0].PC}},
		block: make([]wire.Event, 0, passesPerBlock*len(rot)),
	}
	for i := 0; i < passesPerBlock; i++ {
		s.block = append(s.block, rot...)
	}
	depth := 1
	s.maxDepth = depth
	for i := range s.block {
		switch s.block[i].Kind {
		case wire.EvEnter:
			depth++
			if depth > s.maxDepth {
				s.maxDepth = depth
			}
		case wire.EvLeave:
			depth--
		case wire.EvBranch:
			s.branchPos = append(s.branchPos, int32(i))
		}
	}
	s.blockBranches = uint64(len(s.branchPos))
	s.flips = int(math.Round(flipRate * float64(len(s.branchPos))))
	for _, b := range rng.Perm(len(s.branchPos))[:s.flips] {
		ev := &s.block[s.branchPos[b]]
		ev.Taken = !ev.Taken
	}
	return s
}

// posOfBranch maps a 1-based branch sequence number (wire.Alarm.Seq)
// to its event position in the stream. The lead holds no branches.
func (s *stream) posOfBranch(seq uint64) uint64 {
	i := seq - 1
	b, r := i/s.blockBranches, i%s.blockBranches
	return uint64(len(s.lead)) + b*uint64(len(s.block)) + uint64(s.branchPos[r])
}

// segments appends to dst the stream events at positions [pos, pos+n)
// as at most a few sub-slices of lead and block (no copying).
func (s *stream) segments(dst [][]wire.Event, pos uint64, n int) [][]wire.Event {
	for n > 0 {
		var seg []wire.Event
		if pos < uint64(len(s.lead)) {
			seg = s.lead[pos:]
		} else {
			seg = s.block[(pos-uint64(len(s.lead)))%uint64(len(s.block)):]
		}
		if len(seg) > n {
			seg = seg[:n]
		}
		dst = append(dst, seg)
		pos += uint64(len(seg))
		n -= len(seg)
	}
	return dst
}

// percentile returns the q-th (0..1) percentile of xs by the
// nearest-rank rule on a sorted copy (0 when empty).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(q*float64(len(s)-1)+0.5)]
}

// median is percentile(xs, 0.5).
func median(xs []float64) float64 { return percentile(xs, 0.5) }
