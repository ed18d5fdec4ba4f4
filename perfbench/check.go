package main

import (
	"repro/internal/ipds"
	"repro/internal/ipdsclient"
	"repro/internal/tables"
	"repro/internal/wire"
)

// replayChunk is how many stream events the reference replay feeds per
// step; alarms do not depend on how the stream is cut into batches.
const replayChunk = 1 << 16

// verify replays the stream's first n events through a fresh reference
// machine, with ipdsclient.ReplayLocalBatched, and compares its alarms
// in order with got, the alarms the daemon delivered for exactly those
// n acked events. It returns the branch sequence numbers at which the
// two lists differ, and the reference machine's counters.
func verify(img *tables.Image, s *stream, n uint64, got []wire.Alarm) (bad []uint64, st ipds.Stats) {
	m := ipds.New(img, ipds.DefaultConfig)
	var segs [][]wire.Event
	i := 0
	for pos := uint64(0); pos < n; {
		k := uint64(replayChunk)
		if k > n-pos {
			k = n - pos
		}
		segs = s.segments(segs[:0], pos, int(k))
		for _, seg := range segs {
			for _, a := range ipdsclient.ReplayLocalBatched(m, seg, 512) {
				if i >= len(got) || !sameAlarm(got[i], a) {
					bad = append(bad, a.Seq)
				}
				i++
			}
		}
		pos += k
	}
	for ; i < len(got); i++ {
		bad = append(bad, got[i].Seq)
	}
	return bad, m.Stats()
}

// sameAlarm compares a delivered alarm with a reference alarm field by
// field (Func as the daemon clamps it to the wire limit).
func sameAlarm(w wire.Alarm, a ipds.Alarm) bool {
	fn := a.Func
	if len(fn) > wire.MaxString {
		fn = fn[:wire.MaxString]
	}
	return w.Seq == a.Seq && w.PC == a.PC && w.Func == fn &&
		w.Slot == uint32(a.Slot) && w.Expected == uint8(a.Expected) && w.Taken == a.Taken
}

// badFrames counts the distinct frames that carry a differing alarm;
// frameOf maps a stream position to its frame index.
func badFrames(s *stream, bad []uint64, frameOf func(pos uint64) uint64) uint64 {
	seen := map[uint64]bool{}
	for _, seq := range bad {
		if seq == 0 {
			seq = 1
		}
		seen[frameOf(s.posOfBranch(seq))] = true
	}
	return uint64(len(seen))
}

// keepAlarms bounds the delivered alarms per connection a loop keeps
// for the ledger's timed incident replay.
const keepAlarms = 1 << 16

// checkOut is one connection's correctness check.
type checkOut struct {
	got []wire.Alarm
	bad []uint64 // branch sequence numbers where got and the reference differ
	st  ipds.Stats
}

// checked is one loop's correctness accounting, in frames.
type checked struct {
	attempted, failed uint64 // failed: not acked, or carrying a differing alarm
	bad               uint64 // frames with a differing alarm
	alarms            uint64 // delivered
	ref               refStats
	gotAlarms         []wire.Alarm // the first keepAlarms per connection
}

// check checks both closed clients, concurrently, against the
// reference replay of exactly the events each had acked. frameOf maps
// a stream position of connection i to its frame.
func (r *checked) check(d *daemon, clients [2]*ipdsclient.Client, streams [2]*stream, frameOf func(i int, pos uint64) uint64) {
	var outs [2]checkOut
	done := make(chan struct{})
	for i := range clients {
		go func(i int) {
			got := clients[i].Alarms()
			bad, st := verify(d.image(servers[i]), streams[i], clients[i].Acked(), got)
			outs[i] = checkOut{got: got, bad: bad, st: st}
			done <- struct{}{}
		}(i)
	}
	for range clients {
		<-done
	}
	for i, o := range outs {
		r.bad += badFrames(streams[i], o.bad, func(pos uint64) uint64 { return frameOf(i, pos) })
		r.alarms += uint64(len(o.got))
		r.ref.add(o.st)
		r.gotAlarms = append(r.gotAlarms, o.got[:min(len(o.got), keepAlarms)]...)
	}
	r.failed += r.bad
}

// refStats sums the reference machines' counters.
type refStats struct{ branches, batAccesses, alarms uint64 }

func (r *refStats) add(st ipds.Stats) {
	r.branches += st.Branches
	r.batAccesses += st.BATAccesses
	r.alarms += st.Alarms
}
