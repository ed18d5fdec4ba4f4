package ipdsclient

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"slices"
	"sync"
	"time"

	"repro/internal/wire"
)

// The alarm log is one append-only byte stream of delta-coded records
// held in fixed-size chunks. A flood repeats a handful of
// (Func, PC, Slot, Expected, Taken) signals at small Seq gaps with a
// latency sample that rarely changes, so a record is mostly three
// one- or two-byte varints:
//
//	code    uvarint: ref<<2 | latency mode
//	        ref 0 is never written (a chunk's unused tail is zero),
//	        ref 1 escapes to a literal signal, ref k+2 is signal k
//	seq     zigzag varint: Seq minus the previous record's Seq
//	literal (ref 1 only) uvarint PC, Slot, name index, Expected<<1|Taken
//	latency (mode latDelta only) zigzag varint: sample minus the previous sample
//
// Deltas wrap modulo 2^64, so any Seq and latency round-trip — a
// Redial that rolled back re-delivers lower Seqs.
const (
	latNone  = 0 // the alarm has no latency sample
	latSame  = 1 // the sample equals the previous one
	latDelta = 2 // a sample delta follows
)

// chunkBytes is the size of one alarm-log chunk: several thousand
// flood alarms.
const chunkBytes = 16 << 10

// Once a log has written blockChunks chunks past its sealed blocks, it
// seals them as one block: DEFLATE at BestSpeed, whose 32 KiB window
// finds a looping flood's repeats, or the raw blockBytes when that does
// not shrink them. Sealing sits below the record layer: a sealed block
// inflates to the very chunks that went in.
const (
	blockChunks = 4
	blockBytes  = blockChunks * chunkBytes
)

// maxRecord bounds one encoded record: a 3-byte code (refs stay below
// maxSignals+2), three 10-byte varints (Seq, PC, latency), Slot,
// name index and Expected<<1|Taken. A record never straddles chunks.
const maxRecord = 3 + 3*binary.MaxVarintLen64 + binary.MaxVarintLen32 + 3 + 2

// maxNames bounds a log's function-name table: a signal's fn is a
// uint16.
const maxNames = 1 << 16

// maxSignals bounds a log's signal table. An alarm whose signal would
// grow it past the bound is recorded as a literal, so a hostile server
// cannot grow the table and the log stays linear in the alarm bytes
// received.
const maxSignals = 1 << 16

// hotSigs is the size of a log's direct-mapped cache of recent
// signals, which spares a flood's few signals the table's map lookup.
const hotSigs = 128

// hotSlot picks sig's entry in the recent-signal cache: its branch
// site and direction.
func hotSlot(sig signal) uint64 { return (sig.pc>>1 | b2u(sig.taken)) % hotSigs }

// chunk is one fixed-size run of the log's byte stream. It holds no
// pointer, so the collector never scans it.
type chunk [chunkBytes]byte

// signal is what an alarm carries besides its Seq: the interned
// function name's index and the branch site and directions. It packs
// to 16 pointer-free bytes.
type signal struct {
	pc       uint64
	slot     uint32
	fn       uint16
	expected uint8
	taken    bool
}

// alarmLog is a client's retained alarm stream: the alarms in delivery
// order, each with its delivery-latency sample when its batch mark was
// still outstanding, plus the interned signals and function names the
// records refer to. Written bytes, sealed blocks and table entries are
// never rewritten, so a snapshot (view) decodes without the client's
// lock.
type alarmLog struct {
	blocks [][]byte // sealed blocks, oldest first; len blockBytes = kept raw
	chunks []*chunk // the open chunks after them
	off    int      // bytes written into the last chunk
	n      int      // alarms
	nlat   int      // latency samples

	// Codec state: the previous record's Seq and latency sample.
	seq uint64
	lat int64

	sigs   []signal
	sigIDs map[signal]uint16
	hot    [hotSigs]uint32 // 1 + index of a recent signal per hotSlot; 0 = empty

	names []string
	ids   map[string]uint16
	last  uint16 // id of the most recently added name
}

// add appends a (whose Func is ignored) with function name fn and, when
// hasLat, the delivery-latency sample lat, and returns the interned
// name. A flood repeats one function's name and a few signals, so the
// last name and the recently seen signals are compared before the
// tables are searched. A name beyond the name table's bound is refused
// and nothing is appended.
func (l *alarmLog) add(a wire.Alarm, fn []byte, lat time.Duration, hasLat bool) (string, error) {
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

	sig := signal{pc: a.PC, slot: a.Slot, fn: id, expected: a.Expected, taken: a.Taken}
	ref := l.intern(sig)
	mode := uint64(latNone)
	if hasLat {
		mode = latDelta
		if int64(lat) == l.lat {
			mode = latSame
		}
	}

	if len(l.chunks) == 0 || chunkBytes-l.off < maxRecord {
		l.chunks = append(l.chunks, new(chunk))
		l.off = 0
	}
	b := l.chunks[len(l.chunks)-1][l.off:]
	k := binary.PutUvarint(b, ref<<2|mode)
	k += binary.PutVarint(b[k:], int64(a.Seq-l.seq))
	if ref == 1 {
		k += binary.PutUvarint(b[k:], sig.pc)
		k += binary.PutUvarint(b[k:], uint64(sig.slot))
		k += binary.PutUvarint(b[k:], uint64(sig.fn))
		k += binary.PutUvarint(b[k:], uint64(sig.expected)<<1|b2u(sig.taken))
	}
	if mode == latDelta {
		k += binary.PutVarint(b[k:], int64(lat)-l.lat)
	}
	l.off += k
	l.seq = a.Seq
	if hasLat {
		l.lat = int64(lat)
		l.nlat++
	}
	l.n++
	return l.names[id], nil
}

// intern returns sig's record ref: k+2 for signal k, interning sig
// while the table has room, or 1 (a literal record) once it is full.
// The recent-signal cache is checked before the table's map.
func (l *alarmLog) intern(sig signal) uint64 {
	h := &l.hot[hotSlot(sig)]
	if k := *h; k != 0 && l.sigs[k-1] == sig {
		return uint64(k) + 1
	}
	k, ok := l.sigIDs[sig]
	if !ok {
		if len(l.sigs) == maxSignals {
			return 1
		}
		if l.sigIDs == nil {
			l.sigIDs = map[signal]uint16{}
		}
		k = uint16(len(l.sigs))
		l.sigs = append(l.sigs, sig)
		l.sigIDs[sig] = k
	}
	*h = uint32(k) + 1
	return uint64(k) + 2
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// full returns the oldest blockChunks open chunks once a later chunk
// has been started, so nothing will write them again; ok is false
// while the log holds no such block. The chunks may be compressed
// (sealBlock) without the lock that guards add.
func (l *alarmLog) full() (b [blockChunks]*chunk, ok bool) {
	if len(l.chunks) <= blockChunks {
		return b, false
	}
	return [blockChunks]*chunk(l.chunks), true
}

// sealed replaces the block full returned by its sealed bytes z. Only
// the goroutine that appends may seal, so the block is still the
// oldest open one. The open chunks move to a new slice, so a view
// keeps the chunks it snapshotted and the dropped ones are freed.
func (l *alarmLog) sealed(z []byte) {
	n := len(l.chunks) - blockChunks
	open := make([]*chunk, n, max(n, blockChunks+1))
	copy(open, l.chunks[blockChunks:])
	l.chunks = open
	l.blocks = append(l.blocks, z)
}

// sealer is the process's one DEFLATE writer, made on the first seal
// and reused under the lock: it holds ~1.2 MB, so one per client (or a
// sync.Pool's one per P) would cost more than the logs it shrinks. out
// is the block-sized buffer it compresses into.
var sealer struct {
	sync.Mutex
	w   *flate.Writer
	out blockBuf
}

// errNoShrink stops a compression whose output has reached blockBytes.
var errNoShrink = errors.New("ipdsclient: sealed block does not shrink")

// blockBuf collects a compressed block, refusing to grow past
// blockBytes.
type blockBuf []byte

func (b *blockBuf) Write(p []byte) (int, error) {
	if len(p) > blockBytes-len(*b) {
		return 0, errNoShrink
	}
	*b = append(*b, p...)
	return len(p), nil
}

// sealBlock compresses a full block's chunks into a slice of the
// compressed size, or copies them raw into one blockBytes slice when
// compressing them does not shrink them.
func sealBlock(b *[blockChunks]*chunk) []byte {
	sealer.Lock()
	defer sealer.Unlock()
	if sealer.w == nil {
		sealer.w, _ = flate.NewWriter(nil, flate.BestSpeed)
		sealer.out = make(blockBuf, 0, blockBytes)
	}
	sealer.out = sealer.out[:0]
	sealer.w.Reset(&sealer.out)
	var err error
	for _, c := range b {
		if _, err = sealer.w.Write(c[:]); err != nil {
			break
		}
	}
	if err == nil {
		err = sealer.w.Close()
	}
	if err == nil && len(sealer.out) < blockBytes {
		return bytes.Clone(sealer.out)
	}
	raw := make([]byte, blockBytes)
	for i, c := range b {
		copy(raw[i*chunkBytes:], c[:])
	}
	return raw
}

// view snapshots what decoding the log needs: the sealed blocks, the
// open chunk pointers, the byte length of the last chunk and the table
// headers. Later appends and seals write only past the snapshot, so
// the view decodes without the lock that guards add.
func (l *alarmLog) view() logView {
	return logView{blocks: l.blocks, chunks: l.chunks, off: l.off, n: l.n, nlat: l.nlat, sigs: l.sigs, names: l.names}
}

// alarms rebuilds the delivered alarms as wire.Alarm values.
func (l *alarmLog) alarms() []wire.Alarm { return l.view().alarms() }

// latencies returns the delivery-latency samples, nil when there are
// none.
func (l *alarmLog) latencies() []time.Duration { return l.view().latencies() }

// fork returns a log holding the same alarms that the caller may keep
// appending to without changing l. It shares every sealed block and
// full chunk and copies only the partly filled last chunk and the codec
// state. The fork's block list and tables are clipped, so its first
// append reallocates instead of writing into the spare capacity l
// appends to.
func (l *alarmLog) fork() alarmLog {
	out := *l
	out.blocks = slices.Clip(l.blocks)
	out.chunks = slices.Clone(l.chunks)
	if n := len(out.chunks); n > 0 && l.off < chunkBytes {
		last := *l.chunks[n-1]
		out.chunks[n-1] = &last
	}
	out.sigs = slices.Clip(l.sigs)
	out.sigIDs = maps.Clone(l.sigIDs)
	out.names = slices.Clip(l.names)
	out.ids = maps.Clone(l.ids)
	return out
}

// logView is a decodable snapshot of an alarm log (alarmLog.view).
type logView struct {
	blocks  [][]byte
	chunks  []*chunk
	off     int
	n, nlat int
	sigs    []signal
	names   []string
}

// decode walks the snapshot's records in order, storing each alarm in
// alarms and each latency sample in lats; either may be nil, and
// otherwise holds v.n alarms or v.nlat samples. Sealed blocks are
// inflated one at a time into one reused block buffer.
func (v logView) decode(alarms []wire.Alarm, lats []time.Duration) {
	d := decoder{sigs: v.sigs, names: v.names, alarms: alarms, lats: lats}
	var (
		src bytes.Reader
		zr  io.ReadCloser
		buf []byte
	)
	for _, z := range v.blocks {
		b := z
		if len(z) < blockBytes {
			src.Reset(z)
			if zr == nil {
				zr, buf = flate.NewReader(&src), make([]byte, blockBytes)
			} else {
				zr.(flate.Resetter).Reset(&src, nil)
			}
			if _, err := io.ReadFull(zr, buf); err != nil {
				panic(fmt.Sprintf("ipdsclient: sealed alarm block: %v", err))
			}
			b = buf
		}
		for i := 0; i < blockBytes; i += chunkBytes {
			d.chunk(b[i : i+chunkBytes])
		}
	}
	for i, c := range v.chunks {
		end := chunkBytes
		if i == len(v.chunks)-1 {
			end = v.off
		}
		d.chunk(c[:end])
	}
}

// decoder carries the codec state and the output positions from one
// chunk's records to the next.
type decoder struct {
	sigs   []signal
	names  []string
	seq    uint64
	lat    int64
	alarms []wire.Alarm
	lats   []time.Duration
	ia, il int
}

// chunk decodes the records of one chunk's bytes, which end at the
// first zero byte or at the end of b. The state lives in locals while
// the loop runs.
func (d *decoder) chunk(b []byte) {
	seq, lat, ia, il := d.seq, d.lat, d.ia, d.il
	for p := 0; p < len(b) && b[p] != 0; {
		var code, u uint64
		code, p = uvarint(b, p)
		u, p = uvarint(b, p)
		seq += unzigzag(u)
		var sig signal
		if ref := code >> 2; ref == 1 {
			var slot, fn, et uint64
			sig.pc, p = uvarint(b, p)
			slot, p = uvarint(b, p)
			fn, p = uvarint(b, p)
			et, p = uvarint(b, p)
			sig.slot, sig.fn, sig.expected, sig.taken = uint32(slot), uint16(fn), uint8(et>>1), et&1 == 1
		} else {
			sig = d.sigs[ref-2]
		}
		if mode := code & 3; mode != latNone {
			if mode == latDelta {
				u, p = uvarint(b, p)
				lat += int64(unzigzag(u))
			}
			if d.lats != nil {
				d.lats[il] = time.Duration(lat)
				il++
			}
		}
		if d.alarms != nil {
			d.alarms[ia] = wire.Alarm{Seq: seq, PC: sig.pc, Func: d.names[sig.fn],
				Slot: sig.slot, Expected: sig.expected, Taken: sig.taken}
			ia++
		}
	}
	d.seq, d.lat, d.ia, d.il = seq, lat, ia, il
}

// alarms rebuilds the snapshot's alarms as wire.Alarm values.
func (v logView) alarms() []wire.Alarm {
	out := make([]wire.Alarm, v.n)
	v.decode(out, nil)
	return out
}

// latencies returns the snapshot's latency samples, nil when there are
// none.
func (v logView) latencies() []time.Duration {
	if v.nlat == 0 {
		return nil
	}
	out := make([]time.Duration, v.nlat)
	v.decode(nil, out)
	return out
}

// uvarint decodes the uvarint at b[p:] and returns it with the offset
// past it; one-byte values, the common case, take the inlined path.
// The log writes its own bytes, so the encoding is always well formed.
func uvarint(b []byte, p int) (uint64, int) {
	if x := b[p]; x < 0x80 {
		return uint64(x), p + 1
	}
	v, k := binary.Uvarint(b[p:])
	return v, p + k
}

// unzigzag maps a zigzag-coded uvarint back to the signed delta it
// encodes, as a wrapping uint64.
func unzigzag(u uint64) uint64 { return u>>1 ^ -(u & 1) }
