package tcache

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"io"
	"sort"

	"repro/internal/alias"
	"repro/internal/core"
	"repro/internal/ir"
)

// Key is a content address: a SHA-256 over everything the per-function
// table construction depends on.
type Key [sha256.Size]byte

// String renders the key as hex (diagnostics).
func (k Key) String() string { return fmt.Sprintf("%x", k[:]) }

// KeyOf addresses an arbitrary blob by content. The serving layer uses
// it to store whole marshalled table images in the same cache that
// holds per-function blobs, keyed by tables.Image.Hash — a disk-backed
// cache then lets a restarted daemon resolve a reconnecting client's
// image hash without recompiling anything.
func KeyOf(data []byte) Key { return sha256.Sum256(data) }

// keyVersion invalidates every existing cache entry whenever the key
// derivation or the blob format changes incompatibly.
const keyVersion = 2

// keyBuf streams the keyed content into a SHA-256 through a fixed
// buffer, so a key costs the same few allocations whatever the
// function's size (hash.Hash writes never fail). Length-prefixing every string and a fixed tag byte
// per record keep the encoding prefix-free, so distinct inputs cannot
// collide by concatenation.
type keyBuf struct {
	h hash.Hash
	n int
	b [512]byte
}

// room flushes the buffer unless it has n bytes free.
func (k *keyBuf) room(n int) {
	if k.n+n > len(k.b) {
		k.h.Write(k.b[:k.n])
		k.n = 0
	}
}

func (k *keyBuf) u64(v uint64) {
	k.room(8)
	binary.LittleEndian.PutUint64(k.b[k.n:], v)
	k.n += 8
}
func (k *keyBuf) i64(v int64) { k.u64(uint64(v)) }
func (k *keyBuf) tag(t byte) {
	k.room(1)
	k.b[k.n] = t
	k.n++
}
func (k *keyBuf) str(s string) {
	k.u64(uint64(len(s)))
	if len(s) > len(k.b) {
		k.room(len(k.b))
		io.WriteString(k.h, s)
		return
	}
	k.room(len(s))
	k.n += copy(k.b[k.n:], s)
}

// sum flushes the buffer and returns the digest.
func (k *keyBuf) sum() (key Key) {
	k.h.Write(k.b[:k.n])
	k.h.Sum(key[:0])
	return key
}

// KeyFunc computes fn's content address. It covers, in order:
//
//   - the analysis configuration (ablation toggles change the tables),
//   - the function's lowered IR — name, base address, register count
//     and a binary encoding of every instruction: opcode, operands,
//     condition, immediate, memory operand, callee and argument
//     registers, block membership and branch edges, and the PCs the
//     hash search parameterises over,
//   - the alias slice: for every load, store and call of the function,
//     the facts the Figure 5 construction queries (unique load object,
//     may-store set, call write summary),
//   - the shape of every memory object those facts mention (kind, size,
//     scalarness, address-taken), since correlation soundness reads
//     them.
//
// The encoding is equivalent to hashing fn.Dump() but avoids the
// fmt-formatted dump string, which profiles as a quarter of a
// warm-cache compile. Object IDs are program-global, so edits that
// renumber objects (for example adding a global) conservatively miss
// for every function that names one — correctness never depends on a
// hit.
func KeyFunc(al *alias.Analysis, fn *ir.Func, conf core.Config) Key {
	kb := &keyBuf{h: sha256.New()}
	kb.str(fmt.Sprintf("tcache/v%d conf=%v", keyVersion, conf))
	kb.str(fn.Name)
	kb.u64(fn.Base)
	kb.i64(int64(fn.NumRegs))

	// Instruction IDs are dense and ordered, so position encodes ID;
	// block structure is covered by each instruction's block index plus
	// the explicit branch/jump edges.
	kb.i64(int64(len(fn.Instrs)))
	for _, in := range fn.Instrs {
		kb.tag('i')
		kb.i64(int64(in.Op))
		kb.i64(int64(in.Dst))
		kb.i64(int64(in.A))
		kb.i64(int64(in.B))
		kb.i64(in.Imm)
		kb.i64(int64(in.Obj))
		kb.i64(int64(in.Size))
		kb.i64(int64(in.Cond))
		kb.str(in.Callee)
		kb.i64(int64(len(in.Args)))
		for _, a := range in.Args {
			kb.i64(int64(a))
		}
		blk := func(b *ir.Block) int64 {
			if b == nil {
				return -1
			}
			return int64(b.Index)
		}
		kb.i64(blk(in.Target))
		kb.i64(blk(in.Else))
		kb.i64(blk(in.Blk))
		kb.u64(in.PC)
	}

	prog := fn.Prog()
	objs := map[ir.ObjID]bool{}
	writeSet := func(set alias.ObjSet, all bool) {
		if all {
			kb.tag(1)
		} else {
			kb.tag(0)
		}
		ids := set.Sorted()
		kb.i64(int64(len(ids)))
		for _, id := range ids {
			kb.i64(int64(id))
			objs[id] = true
		}
	}
	for _, in := range fn.Instrs {
		switch in.Op {
		case ir.OpLoad:
			obj, ok := al.LoadObject(in)
			kb.tag('l')
			kb.i64(int64(in.ID))
			if ok {
				kb.tag(1)
				kb.i64(int64(obj))
				objs[obj] = true
			} else {
				kb.tag(0)
			}
		case ir.OpStore:
			kb.tag('s')
			kb.i64(int64(in.ID))
			writeSet(al.StoreTargets(in))
		case ir.OpCall:
			kb.tag('c')
			kb.i64(int64(in.ID))
			writeSet(al.CallWrites(in))
		}
	}

	ids := make([]ir.ObjID, 0, len(objs))
	for id := range objs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if id < 0 || int(id) >= len(prog.Objects) {
			continue
		}
		o := prog.Object(id)
		kb.tag('o')
		kb.i64(int64(id))
		kb.i64(int64(o.Kind))
		kb.i64(int64(o.Size()))
		if o.IsScalar() {
			kb.tag(1)
		} else {
			kb.tag(0)
		}
		if o.AddrTaken {
			kb.tag(1)
		} else {
			kb.tag(0)
		}
	}

	return kb.sum()
}
