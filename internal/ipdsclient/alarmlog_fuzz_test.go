package ipdsclient

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// logModel is one alarm log under test next to the plain slices it
// must decode to.
type logModel struct {
	log    alarmLog
	alarms []wire.Alarm
	lats   []time.Duration
}

// add appends one alarm to the log and, unless the log refuses its
// name, to the model; it reports whether the log accepted it.
func (m *logModel) add(t *testing.T, a wire.Alarm, lat time.Duration, hasLat bool) bool {
	t.Helper()
	name, err := m.log.add(a, []byte(a.Func), lat, hasLat)
	if err != nil {
		if len(m.log.names) != maxNames {
			t.Fatalf("add refused %q with %d names: %v", a.Func, len(m.log.names), err)
		}
		return false
	}
	if name != a.Func {
		t.Fatalf("add returned name %q, want %q", name, a.Func)
	}
	m.alarms = append(m.alarms, a)
	if hasLat {
		m.lats = append(m.lats, lat)
	}
	return true
}

// check compares the log's decoded contents with the model.
func (m *logModel) check(t *testing.T, side int) {
	t.Helper()
	got := m.log.alarms()
	if m.log.n != len(m.alarms) || len(got) != len(m.alarms) {
		t.Fatalf("side %d: log counts %d and decodes %d alarms, want %d", side, m.log.n, len(got), len(m.alarms))
	}
	for i := range got {
		if got[i] != m.alarms[i] {
			t.Fatalf("side %d: alarm %d = %+v, want %+v", side, i, got[i], m.alarms[i])
		}
	}
	lats := m.log.latencies()
	if (lats == nil) != (len(m.lats) == 0) || !slices.Equal(lats, m.lats) {
		t.Fatalf("side %d: latencies %v, want %v", side, lats, m.lats)
	}
	if len(m.log.sigs) > maxSignals || len(m.log.names) > maxNames {
		t.Fatalf("side %d: %d signals, %d names past the bounds", side, len(m.log.sigs), len(m.log.names))
	}
	for i, z := range m.log.blocks {
		if len(z) > blockBytes {
			t.Fatalf("side %d: sealed block %d holds %d bytes, more than raw", side, i, len(z))
		}
	}
	for sig, k := range m.log.sigIDs {
		if m.log.sigs[k] != sig {
			t.Fatalf("side %d: signal %d is %+v, indexed as %+v", side, k, m.log.sigs[k], sig)
		}
	}
	for name, k := range m.log.ids {
		if m.log.names[k] != name {
			t.Fatalf("side %d: name %d is %q, indexed as %q", side, k, m.log.names[k], name)
		}
	}
}

// fuzzInput hands out the fuzzer's bytes as little-endian fields,
// reading zeros once they run out.
type fuzzInput []byte

func (in *fuzzInput) uint(n int) uint64 {
	var b [8]byte
	k := copy(b[:n], *in)
	*in = (*in)[k:]
	return binary.LittleEndian.Uint64(b[:])
}

// fuzzRoom is how many entries an overflow leaves a table below its
// bound (maxNames, maxSignals) before adding past it.
const fuzzRoom = 24

// pad fills a log's name or signal table with filler entries until
// fuzzRoom entries are left below its bound, so the overflow after them
// takes a few adds. Fillers go into the table's slice only, not its
// map: the map indexes what alarms interned, and a padded log stays as
// cheap to fork as any other (with full maps a fork takes
// milliseconds). A fuzzed alarm that happens to carry a filler signal
// misses the map and is interned again or recorded as a literal, which
// decodes the same.
func pad[T any](table []T, fillers []T, bound int) []T {
	if n := len(table); n < bound-fuzzRoom {
		table = append(table, fillers[n:bound-fuzzRoom]...)
	}
	return table
}

// fillers holds the padding entries, built once: distinct names and
// signals at PCs no fuzzed site uses.
var fillers = sync.OnceValue(func() (f struct {
	names []string
	sigs  []signal
}) {
	for i := range maxNames {
		f.names = append(f.names, fmt.Sprint("filler", i))
	}
	for i := range maxSignals {
		f.sigs = append(f.sigs, signal{pc: 1<<40 + uint64(i)})
	}
	return f
})

// fuzzNames are the function names single adds pick from: the empty
// name, a MaxString name and two short ones.
var fuzzNames = [4]string{"", "main", strings.Repeat("x", wire.MaxString), "handle"}

// maxSealRuns bounds the seal runs one input may take, each a few
// thousand adds, so an input stays a few milliseconds.
const maxSealRuns = 4

// sealWord is word i of a seal run's stream from seed x (splitmix64).
func sealWord(x, i uint64) uint64 {
	z := x + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// sealRun appends alarms to side s until its log holds a full block,
// forks there when fork is set and there is room for a side (the
// window between the client reader's append and its seal, in which a
// Redial can fork), seals, and appends extra alarms past the seal. Each
// alarm is drawn from seed x with 56-bit Seq and latency deltas, so a
// block fills in a few thousand adds. With period > 0 the deltas loop
// every period alarms and the block compresses; without, it does not
// shrink and is kept raw.
func sealRun(t *testing.T, sides *[]*logModel, s *logModel, x uint64, period, extra int, fork bool) {
	seq, lat := uint64(0), time.Duration(0)
	if n := len(s.alarms); n > 0 {
		seq = s.alarms[n-1].Seq
	}
	for i, sealedAt := 0, -1; sealedAt < 0 || i < sealedAt+extra; i++ {
		k := uint64(i)
		if period > 0 {
			k %= uint64(period)
		}
		// 56-bit zigzag deltas fill their 8-byte varints with random
		// bits, which DEFLATE does not shrink.
		w := sealWord(x, k)
		seq += unzigzag(w >> 8)
		lat += time.Duration(unzigzag(sealWord(^x, k) >> 8))
		site := w >> 62
		a := wire.Alarm{Seq: seq, PC: 0x40 + 4*site, Func: "main", Slot: uint32(site), Expected: uint8(site), Taken: w&1 != 0}
		if !s.add(t, a, lat, w&2 != 0) {
			return // the name table is full without "main"
		}
		if _, full := s.log.full(); full && sealedAt < 0 {
			if fork && len(*sides) < 4 {
				*sides = append(*sides, s.fork())
			}
			s.log.seal()
			sealedAt = i
		}
	}
}

// fork returns a model of m's log forked.
func (m *logModel) fork() *logModel {
	return &logModel{log: m.log.fork(), alarms: slices.Clone(m.alarms), lats: slices.Clone(m.lats)}
}

// FuzzAlarmLog drives an operation sequence — adds with arbitrary
// fields, forks with appends on both sides, overflows of the signal and
// name tables, and runs of appends past a block seal — against plain
// []wire.Alarm and []time.Duration models, and checks every side
// decodes to its model. The current side seals its full blocks after
// every operation, as the client's reader does after every alarm.
//
// Each operation is one opcode byte followed by its fields:
//
//	op%8 < 5  add one alarm. A flags byte picks a latency sample
//	          (bit 0), a raw 8-byte Seq instead of a signed 1-byte
//	          step (bit 1), a raw 8-byte PC instead of one of 4 sites
//	          (bit 2), a raw 8-byte latency instead of a signed 1-byte
//	          step (bit 3), the name (bits 4-5) and Taken (bit 6);
//	          Expected and Slot take one byte each.
//	op%8 == 5 fork the current side (at most 4 sides).
//	op%8 == 6 switch to side byte%sides.
//	op%8 == 7 with byte bit 1 clear, overflow: bit 0 picks the name
//	          table (fuzzRoom+1 new names) or the signal table
//	          (fuzzRoom+5 new sites).
//	          With byte bit 1 set, a seal run (sealRun, at most
//	          maxSealRuns per input) from an 8-byte seed: bit 2 loops
//	          the stream every 16 alarms, bit 3 forks at the full
//	          block before its seal, bits 4-7 are the alarms appended
//	          past the seal, over 4.
//
// An overflow first pads the table (pad), so the real bounds are
// reached in a few adds.
func FuzzAlarmLog(f *testing.F) {
	f.Add([]byte{0, 0x07, 3, 9, 0x05, 0xff, 4, 200, 1, 2, 0x5a, 8, 0xff, 0xff})
	f.Add([]byte{0, 0x03, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0x02, 7, 7, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 6, 0, 1, 0x09, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		sides := []*logModel{{}}
		cur, runs := 0, 0
		var seq uint64
		var lat time.Duration
		for len(in) > 0 {
			s := sides[cur]
			if n := len(s.alarms); n > 0 {
				seq = s.alarms[n-1].Seq
			}
			switch op := in.uint(1) % 8; {
			case op < 5:
				fl := in.uint(1)
				a := wire.Alarm{Func: fuzzNames[fl>>4&3], Taken: fl&64 != 0}
				a.Expected = uint8(in.uint(1))
				a.Slot = uint32(in.uint(1))
				if fl&2 != 0 {
					a.Seq = in.uint(8)
				} else {
					a.Seq = seq + uint64(int8(in.uint(1)))
				}
				if fl&4 != 0 {
					a.PC = in.uint(8)
				} else {
					a.PC = 0x40 + 4*in.uint(1)%16
				}
				if fl&8 != 0 {
					lat = time.Duration(in.uint(8))
				} else {
					lat += time.Duration(int8(in.uint(1)))
				}
				s.add(t, a, lat, fl&1 != 0)
			case op == 5:
				if len(sides) < 4 {
					sides = append(sides, s.fork())
				}
			case op == 6:
				cur = int(in.uint(1)) % len(sides)
			case op == 7:
				switch b := in.uint(1); {
				case b&2 != 0:
					x := in.uint(8)
					if runs++; runs <= maxSealRuns {
						sealRun(t, &sides, s, x, int(b&4)*4, int(b>>4)*4, b&8 != 0)
					}
				case b&1 == 0:
					s.log.names = pad(s.log.names, fillers().names, maxNames)
					for i := 0; i <= fuzzRoom; i++ {
						a := wire.Alarm{Seq: seq + uint64(i), PC: 0x40, Func: fmt.Sprint("n", i)}
						if !s.add(t, a, time.Duration(i), i%2 == 0) {
							break
						}
					}
					if len(s.log.names) != maxNames {
						t.Fatalf("name table holds %d names after the overflow, want %d", len(s.log.names), maxNames)
					}
				default:
					// Refused only when the name table is full without "main".
					s.log.sigs = pad(s.log.sigs, fillers().sigs, maxSignals)
					added := false
					for i := 0; i < fuzzRoom+5; i++ {
						a := wire.Alarm{Seq: seq - uint64(i), PC: math.MaxUint64 - uint64(i), Func: "main", Expected: uint8(i)}
						added = s.add(t, a, time.Duration(-i), i%3 == 0)
					}
					if added && len(s.log.sigs) != maxSignals {
						t.Fatalf("signal table holds %d signals after the overflow, want %d", len(s.log.sigs), maxSignals)
					}
				}
			}
			s.log.seal()
		}
		for i, s := range sides {
			s.check(t, i)
		}
	})
}
