package ipdsclient

import (
	"fmt"
	"maps"
	"time"

	"repro/internal/wire"
)

// chunkLen is the entry count of one alarm-log chunk.
const chunkLen = 4096

// maxNames bounds a log's function-name table: alarmRec.Fn is a uint16.
const maxNames = 1 << 16

// alarmRec is one retained alarm: a wire.Alarm whose function name is
// replaced by its index in the log's name table. It holds no pointer,
// so the collector never scans a chunk of them, and packs to 24 bytes.
type alarmRec struct {
	Seq, PC  uint64
	Slot     uint32
	Fn       uint16
	Expected uint8
	Taken    bool
}

// chunks is an append-only sequence stored in fixed chunkLen-entry
// arrays. Appending never copies earlier entries, and a full chunk is
// never written again, so a fork can share it.
type chunks[T any] struct {
	c []*[chunkLen]T
	n int
}

func (s *chunks[T]) add(v T) {
	i := s.n % chunkLen
	if i == 0 {
		s.c = append(s.c, new([chunkLen]T))
	}
	s.c[len(s.c)-1][i] = v
	s.n++
}

// each calls f on every entry in append order.
func (s *chunks[T]) each(f func(T)) {
	for i := 0; i < s.n; i++ {
		f(s.c[i/chunkLen][i%chunkLen])
	}
}

// fork returns a copy that shares every full chunk and copies only the
// partly filled last one, so appends to either side stay private.
func (s *chunks[T]) fork() chunks[T] {
	out := chunks[T]{c: append([]*[chunkLen]T(nil), s.c...), n: s.n}
	if s.n%chunkLen != 0 {
		last := *s.c[len(s.c)-1]
		out.c[len(out.c)-1] = &last
	}
	return out
}

// alarmLog is a client's retained alarm stream: the alarms in delivery
// order, their delivery-latency samples (one per alarm whose batch
// mark was still outstanding), and the interned function names the
// records index.
type alarmLog struct {
	recs  chunks[alarmRec]
	lat   chunks[time.Duration]
	names []string
	ids   map[string]uint16
	last  uint16 // id of the most recently added name
}

// add appends a (whose Func is ignored) with function name fn,
// interning fn, and returns the interned name. A flood repeats one
// function's name, so the last interned name is compared before the
// table is searched. A name beyond the table's maxNames bound is
// refused and nothing is appended.
func (l *alarmLog) add(a wire.Alarm, fn []byte) (string, error) {
	id, ok := l.last, len(l.names) > 0 && l.names[l.last] == string(fn)
	if !ok {
		id, ok = l.ids[string(fn)]
	}
	if !ok {
		if len(l.names) == maxNames {
			return "", fmt.Errorf("ipdsclient: alarm names exceed %d distinct functions", maxNames)
		}
		if l.ids == nil {
			l.ids = map[string]uint16{}
		}
		id = uint16(len(l.names))
		name := string(fn)
		l.names = append(l.names, name)
		l.ids[name] = id
	}
	l.last = id
	l.recs.add(alarmRec{Seq: a.Seq, PC: a.PC, Slot: a.Slot, Fn: id, Expected: a.Expected, Taken: a.Taken})
	return l.names[id], nil
}

// alarms rebuilds the delivered alarms as wire.Alarm values.
func (l *alarmLog) alarms() []wire.Alarm {
	out := make([]wire.Alarm, 0, l.recs.n)
	l.recs.each(func(r alarmRec) {
		out = append(out, wire.Alarm{Seq: r.Seq, PC: r.PC, Func: l.names[r.Fn], Slot: r.Slot, Expected: r.Expected, Taken: r.Taken})
	})
	return out
}

// latencies returns the delivery-latency samples, nil when there are
// none.
func (l *alarmLog) latencies() []time.Duration {
	var out []time.Duration
	if l.lat.n > 0 {
		out = make([]time.Duration, 0, l.lat.n)
	}
	l.lat.each(func(d time.Duration) { out = append(out, d) })
	return out
}

// fork returns a log holding the same alarms that the caller may keep
// appending to without changing l.
func (l *alarmLog) fork() alarmLog {
	return alarmLog{
		recs:  l.recs.fork(),
		lat:   l.lat.fork(),
		names: append([]string(nil), l.names...),
		ids:   maps.Clone(l.ids),
		last:  l.last,
	}
}
