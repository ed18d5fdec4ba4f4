package incident

// Folder folds alarms into Records as a producer raises them: one
// record per (session, signal, bucket) run, so the analyzer's work
// under a flood scales with the records rather than the alarms. Alarms
// must come in sequence order within a session, as a verifier raises
// them; a record then holds all of its signal's alarms in its bucket
// since the folder was last reset, and the records of one session and
// signal come in bucket order.
type Folder struct {
	bw   uint64 // the analyzer's bucket width
	max  int    // records held before the folder reports full
	recs []Record

	// recs[open:] are the records of the newest (session, bucket); an
	// alarm is folded only into one of them.
	open   int
	sess   uint64
	bucket uint64
}

// NewFolder returns an empty folder that buckets alarms as a does and
// holds up to capacity records. It allocates its storage on the first
// Add, so a producer that never alarms holds none.
func (a *Analyzer) NewFolder(capacity int) Folder {
	return Folder{bw: uint64(a.cfg.BucketEvents), max: max(capacity, 1)}
}

// Add folds one alarm into the records and reports whether the folder
// is full: the caller then hands its Records on and Resets it before
// the next Add.
func (f *Folder) Add(session, seq, pc uint64, fn string) (full bool) {
	bucket := seq / f.bw
	if f.open == len(f.recs) || session != f.sess || bucket != f.bucket {
		f.open, f.sess, f.bucket = len(f.recs), session, bucket
	}
	for i := f.open; i < len(f.recs); i++ {
		if r := &f.recs[i]; r.PC == pc && r.Func == fn {
			r.LastSeq = seq
			r.Count++
			return false
		}
	}
	if f.recs == nil {
		f.recs = make([]Record, 0, f.max)
	}
	f.recs = append(f.recs, Record{Session: session, PC: pc, Func: fn, FirstSeq: seq, LastSeq: seq, Count: 1})
	return len(f.recs) == f.max
}

// Records returns the records folded since the last Reset, in the
// order their first alarms came. The slice is the folder's until the
// next Reset.
func (f *Folder) Records() []Record { return f.recs }

// Reset empties the folder, keeping its storage.
func (f *Folder) Reset() {
	f.recs = f.recs[:0]
	f.open = 0
}
