package main

import (
	"encoding/binary"
	"net"
	"time"

	"repro/internal/wire"
)

// tap wraps a client connection and timestamps each Ack and Alarm
// frame at the socket read that delivers it. The client library keeps
// only one latency sample per ack, timed from the actual write of the
// newest frame it retires. An open loop must time every frame from its
// intended send instant, so the benchmark times arrivals itself.
//
// Read runs on the client's reader goroutine only. The owner reads
// ackAt and alarms after Client.Close, which waits for that goroutine.
type tap struct {
	net.Conn
	base   time.Time // clock origin shared with the pacer
	frame  uint64    // events per frame; every frame is acked separately
	stream *stream

	ackAt  []int64    // per-connection frame k → Ack arrival (ns since base)
	acked  int        // frames with an Ack so far
	alarms []alarmHit // one per Alarm, delivery order

	// Incremental frame scanner: header bytes, payload bytes left, and
	// the payload prefix (type byte + first uvarint).
	hdr  [4]byte
	hdrN int
	left int
	pre  [1 + binary.MaxVarintLen64]byte
	preN int
}

// alarmHit is one Alarm arrival: the per-connection frame carrying the
// alarming branch, and when the Alarm arrived.
type alarmHit struct {
	frame int
	at    int64
}

func newTap(base time.Time, frame int, s *stream, frames int) *tap {
	return &tap{base: base, frame: uint64(frame), stream: s, ackAt: make([]int64, frames)}
}

func (t *tap) Read(p []byte) (int, error) {
	n, err := t.Conn.Read(p)
	if n > 0 {
		t.scan(p[:n], int64(time.Since(t.base)))
	}
	return n, err
}

// scan walks the length-prefixed frames in b, which may start or end
// anywhere inside a frame.
func (t *tap) scan(b []byte, now int64) {
	for len(b) > 0 {
		if t.left == 0 {
			k := copy(t.hdr[t.hdrN:], b)
			t.hdrN += k
			b = b[k:]
			if t.hdrN < len(t.hdr) {
				return
			}
			t.left = int(binary.LittleEndian.Uint32(t.hdr[:]))
			t.hdrN, t.preN = 0, 0
			continue
		}
		k := len(b)
		if k > t.left {
			k = t.left
		}
		t.preN += copy(t.pre[t.preN:], b[:k])
		t.left -= k
		b = b[k:]
		if t.left == 0 {
			t.frameDone(now)
		}
	}
}

// frameDone records a completed Ack or Alarm frame.
func (t *tap) frameDone(now int64) {
	if t.preN < 2 {
		return
	}
	v, n := binary.Uvarint(t.pre[1:t.preN])
	if n <= 0 {
		return
	}
	switch wire.FrameType(t.pre[0]) {
	case wire.TypeAck:
		for k := int(v / t.frame); t.acked < k && t.acked < len(t.ackAt); t.acked++ {
			t.ackAt[t.acked] = now
		}
	case wire.TypeAlarm:
		t.alarms = append(t.alarms, alarmHit{frame: int(t.stream.posOfBranch(v) / t.frame), at: now})
	}
}
