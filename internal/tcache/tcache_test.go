package tcache

import (
	"bytes"
	"os"
	"sync"
	"testing"

	"repro/internal/alias"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/tables"
)

// lower compiles MiniC source up to the alias phase (the cache's
// inputs) without importing the pipeline (which imports tcache).
func lower(t testing.TB, src string) (*ir.Program, *alias.Analysis) {
	t.Helper()
	file, err := minic.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := minic.Check(file)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ir.Lower(mp, ir.DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	return prog, alias.Analyze(prog)
}

const src1 = `
int g;
int main() {
	g = read_int();
	if (g < 5) { print_int(1); }
	if (g < 9) { return 1; }
	return 0;
}`

func TestKeyFuncStability(t *testing.T) {
	prog1, al1 := lower(t, src1)
	prog2, al2 := lower(t, src1)
	fn1, fn2 := prog1.ByName["main"], prog2.ByName["main"]
	if KeyFunc(al1, fn1, core.Config{}) != KeyFunc(al2, fn2, core.Config{}) {
		t.Error("identical source must produce identical keys")
	}
	// A different analysis configuration must change the key: the
	// ablation toggles change the resulting tables.
	if KeyFunc(al1, fn1, core.Config{}) == KeyFunc(al1, fn1, core.Config{SelfOnly: true}) {
		t.Error("core.Config must be part of the key")
	}
	// An edit to the branch structure must change the key.
	prog3, al3 := lower(t, `
int g;
int main() {
	g = read_int();
	if (g < 5) { print_int(1); }
	if (g < 8) { return 1; }
	return 0;
}`)
	if KeyFunc(al1, fn1, core.Config{}) == KeyFunc(al3, prog3.ByName["main"], core.Config{}) {
		t.Error("edited function must change its key")
	}
}

func TestBlobRoundTrip(t *testing.T) {
	prog, al := lower(t, src1)
	fn := prog.ByName["main"]
	ft := core.BuildFunc(prog, al, fn, core.Config{})
	fi, err := tables.EncodeFunc(ft)
	if err != nil {
		t.Fatal(err)
	}
	blob := EncodeBlob(fi, ft)
	// Canonical serialisation: encoding twice is byte-identical.
	if !bytes.Equal(blob, EncodeBlob(fi, ft)) {
		t.Fatal("EncodeBlob is not deterministic")
	}

	gotFi, gotFt, err := DecodeBlob(blob, fn)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tables.MarshalFunc(gotFi), tables.MarshalFunc(fi)) {
		t.Error("FuncImage did not survive the round trip")
	}
	if gotFt.NumChecked() != ft.NumChecked() || gotFt.NumActions() != ft.NumActions() {
		t.Errorf("FuncTables: got %d/%d checked/actions, want %d/%d",
			gotFt.NumChecked(), gotFt.NumActions(), ft.NumChecked(), ft.NumActions())
	}
	if len(gotFt.Correlations) != len(ft.Correlations) {
		t.Fatalf("got %d correlations, want %d", len(gotFt.Correlations), len(ft.Correlations))
	}
	for i := range ft.Correlations {
		if gotFt.Correlations[i].String() != ft.Correlations[i].String() {
			t.Errorf("correlation %d: got %s, want %s", i,
				gotFt.Correlations[i], ft.Correlations[i])
		}
	}

	// Corruption must be detected, not mis-decoded.
	for _, cut := range []int{1, 4, 10, len(blob) - 1} {
		if _, _, err := DecodeBlob(blob[:cut], fn); err == nil {
			t.Errorf("truncation at %d not detected", cut)
		}
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c, err := New(2, "")
	if err != nil {
		t.Fatal(err)
	}
	k := func(b byte) Key { var k Key; k[0] = b; return k }
	c.Put(k(1), []byte{1})
	c.Put(k(2), []byte{2})
	c.Get(k(1)) // refresh 1: 2 is now the LRU victim
	c.Put(k(3), []byte{3})
	if _, ok := c.Get(k(2)); ok {
		t.Error("LRU victim survived eviction")
	}
	if _, ok := c.Get(k(1)); !ok {
		t.Error("recently used entry evicted")
	}
	if _, ok := c.Get(k(3)); !ok {
		t.Error("new entry missing")
	}
	s := c.Stats()
	if s.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", s.Evictions)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
}

func TestCacheDiskTier(t *testing.T) {
	dir := t.TempDir()
	c1, err := New(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	var key Key
	key[0] = 7
	c1.Put(key, []byte("blob"))

	c2, err := New(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	blob, ok := c2.Get(key)
	if !ok || string(blob) != "blob" {
		t.Fatalf("disk tier miss: ok=%v blob=%q", ok, blob)
	}
	if s := c2.Stats(); s.DiskHits != 1 || s.MemHits != 0 {
		t.Errorf("stats %+v, want 1 disk hit", s)
	}
	// Promoted to memory: a second Get is a memory hit.
	if _, ok := c2.Get(key); !ok {
		t.Fatal("promoted entry missing")
	}
	if s := c2.Stats(); s.MemHits != 1 {
		t.Errorf("stats %+v, want 1 mem hit after promotion", s)
	}

	// A corrupt or unrelated file in the directory is ignored.
	if err := os.WriteFile(dir+"/garbage", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	var other Key
	other[0] = 8
	if _, ok := c2.Get(other); ok {
		t.Error("unexpected hit for absent key")
	}
}

func TestCacheNilIsNoOp(t *testing.T) {
	var c *Cache
	var key Key
	if _, ok := c.Get(key); ok {
		t.Error("nil cache must miss")
	}
	c.Put(key, []byte("x")) // must not panic
	c.Instrument(obs.NewRegistry())
	if c.Len() != 0 || c.Stats() != (Stats{}) {
		t.Error("nil cache must be empty")
	}
}

// TestCacheConcurrentBlobRoundTrip is the registry's usage shape: the
// fleet tier makes the disk cache multi-reader for real — one
// goroutine persisting fetched images while peers' requests read them
// back concurrently. Image-sized blobs are stored under their own
// content address (KeyOf, exactly how ImageStore keys whole images)
// with an LRU far smaller than the key set, so most Gets fall through
// to the disk tier; every returned blob must still hash to the key
// that fetched it — a torn read, partial rename or cross-key mixup
// would show up as a content mismatch.
func TestCacheConcurrentBlobRoundTrip(t *testing.T) {
	const (
		goroutines = 8
		keys       = 24
		rounds     = 40
		blobSize   = 4 << 10
	)
	c, err := New(4, t.TempDir()) // LRU holds 4 of 24 keys: disk tier does the work
	if err != nil {
		t.Fatal(err)
	}
	blobs := make([][]byte, keys)
	addrs := make([]Key, keys)
	for i := range blobs {
		b := make([]byte, blobSize)
		for j := range b {
			b[j] = byte(i*31 + j)
		}
		blobs[i] = b
		addrs[i] = KeyOf(b)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g*rounds + r*7) % keys
				if blob, ok := c.Get(addrs[i]); ok {
					if KeyOf(blob) != addrs[i] {
						t.Errorf("goroutine %d round %d: blob %d fails its own content address", g, r, i)
						return
					}
				} else {
					c.Put(addrs[i], blobs[i])
				}
			}
		}(g)
	}
	wg.Wait()
	// Everything written must now round-trip (disk tier retains all
	// keys regardless of LRU pressure).
	for i, k := range addrs {
		blob, ok := c.Get(k)
		if !ok {
			continue // never written by the interleaving: legal
		}
		if KeyOf(blob) != k {
			t.Fatalf("final sweep: blob %d fails its content address", i)
		}
	}
}

func TestCacheConcurrency(t *testing.T) {
	c, err := New(8, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	c.Instrument(reg)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var k Key
				k[0] = byte(i % 16)
				if blob, ok := c.Get(k); ok {
					if len(blob) != 1 || blob[0] != k[0] {
						t.Errorf("corrupt blob for key %d", k[0])
						return
					}
				} else {
					c.Put(k, []byte{k[0]})
				}
			}
		}(g)
	}
	wg.Wait()
	s := c.Stats()
	if s.Hits+s.Misses == 0 {
		t.Error("no traffic recorded")
	}
	if got := reg.Counter("tcache_hits_total").Value(); got != s.Hits {
		t.Errorf("registry hits %d != stats hits %d", got, s.Hits)
	}
}
