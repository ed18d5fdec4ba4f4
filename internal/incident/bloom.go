package incident

// Layer 2: stable bloom filter dedup (Deng & Rafiei, "Approximately
// Detecting Duplicates for Streaming Data using Stable Bloom Filters").
// A classic bloom filter saturates on an unbounded stream; the stable
// variant decays a few cells before every insert, so old tuples fade
// and the false-positive rate converges to a stable bound instead of
// climbing to one. Duplicates here are (func, branch, bucket) tuples:
// the second and later alarms of one signal within one bucket fold
// into the first, which is what collapses a storm by orders of
// magnitude before the correlators ever see it.
//
// Decay is a deterministic rotating cursor (not the randomized decay of
// the paper): the analyzer's output must be a pure function of the
// per-session alarm streams, and a per-session filter fed in stream
// order with deterministic decay is exactly that.

const (
	// bloomMax is the cell ceiling (cells are small saturating
	// counters; fresh inserts set their cells to this).
	bloomMax = 3
	// bloomProbes is the number of cells one tuple hashes to.
	bloomProbes = 3
	// bloomDecay is the number of cells decremented before each
	// insert; decay/probes fixes the filter's stable occupancy.
	bloomDecay = 4
)

// stableBloom is one session's dedup filter.
type stableBloom struct {
	cells []uint8
	cur   uint64 // deterministic decay cursor
}

// init sizes the filter; cells must be a power of two (Config rounds
// BloomCells up to one), so a probe's index is a mask.
func (f *stableBloom) init(cells int) {
	f.cells = make([]uint8, cells)
}

// addFresh inserts a tuple hash and reports whether it was (probably)
// unseen: true = fresh, false = duplicate, folded. False positives
// (a fresh tuple reported duplicate) under-count a signal's distinct
// buckets slightly; false negatives fade in as old tuples decay, which
// is the stable trade the filter is chosen for.
func (f *stableBloom) addFresh(h uint64) bool {
	f.decay(bloomDecay)
	return f.set(h)
}

// addRun inserts a tuple n times in a row (n ≥ 1) and reports whether
// the first insert was fresh, leaving the filter exactly as n addFresh
// calls would. Those calls' later inserts re-set cells the earlier ones
// set to bloomMax, and the bloomDecay decays between two of them lower
// each by at most two (the filter has at least two cells, so the cursor
// reaches a cell at most twice in bloomDecay steps): every insert after
// the first is a duplicate, and each of the tuple's cells ends at
// bloomMax. So the run is its first insert, the decay of all
// the others in one sweep, and one final set.
func (f *stableBloom) addRun(h, n uint64) bool {
	fresh := f.addFresh(h)
	if n > 1 {
		f.decay(bloomDecay * (n - 1))
		f.set(h)
	}
	return fresh
}

// decay advances the cursor k cells, decrementing each cell it reaches.
// A sweep of bloomMax times the whole filter empties it, so longer
// sweeps stop there.
func (f *stableBloom) decay(k uint64) {
	size := uint64(len(f.cells))
	mask := size - 1
	if k >= bloomMax*size {
		clear(f.cells)
		f.cur = (f.cur + k) & mask
		return
	}
	for ; k > 0; k-- {
		f.cur = (f.cur + 1) & mask
		if c := &f.cells[f.cur]; *c > 0 {
			*c--
		}
	}
}

// set sets a tuple's cells to bloomMax and reports whether any of them
// was empty (the tuple was fresh).
func (f *stableBloom) set(h uint64) bool {
	mask := uint64(len(f.cells) - 1)
	// Double hashing: probe i at h1 + i·h2 (h2 odd, so every probe
	// sequence cycles the whole power-of-two table).
	h2 := (h>>33 | h<<31) | 1
	seen := true
	for i := uint64(0); i < bloomProbes; i++ {
		c := &f.cells[(h+i*h2)&mask]
		if *c == 0 {
			seen = false
		}
		*c = bloomMax
	}
	return !seen
}

// tupleHash mixes a dedup tuple into one 64-bit hash (FNV-1a over the
// function name, then a splitmix64-style finisher over PC and bucket).
func tupleHash(fn string, pc, bucket uint64) uint64 {
	return tupleFinish(tuplePrefix(fn, pc), bucket)
}

// tuplePrefix is the part of tupleHash that depends on the signal
// alone; a signal computes it once, so an alarm pays only the finish.
func tuplePrefix(fn string, pc uint64) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(fn); i++ {
		h = (h ^ uint64(fn[i])) * 1099511628211
	}
	h ^= pc
	h *= 0x9e3779b97f4a7c15
	h ^= h >> 29
	return h
}

// tupleFinish mixes a bucket into a tuplePrefix.
func tupleFinish(h, bucket uint64) uint64 {
	h ^= bucket
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return h
}

// tupleHash is the dedup hash of the signal's tuple in bucket.
func (s *signal) tupleHash(bucket uint64) uint64 { return tupleFinish(s.hpc, bucket) }
