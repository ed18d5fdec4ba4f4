package tcache

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

var updateKeys = flag.Bool("update-keys", false, "rewrite testdata/keyfunc.golden from the current KeyFunc")

// TestKeyFuncGolden pins KeyFunc's bytes: the key of every function of
// the ten workloads must match the committed hex. A changed key orphans
// every cache entry on disk, so a derivation change must also bump
// keyVersion (and then rewrite the file with -update-keys).
func TestKeyFuncGolden(t *testing.T) {
	var b strings.Builder
	for _, w := range workload.All() {
		prog, al := lower(t, w.Source)
		for _, fn := range prog.Funcs {
			fmt.Fprintf(&b, "%s %s %v\n", w.Name, fn.Name, KeyFunc(al, fn, core.Config{}))
		}
	}
	const path = "testdata/keyfunc.golden"
	if *updateKeys {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(g), len(w)) {
			if g[i] != w[i] {
				t.Fatalf("key line %d: got %q, want %q", i+1, g[i], w[i])
			}
		}
		t.Fatalf("%d key lines, want %d", len(g), len(w))
	}
}

// TestKeyBufStreams checks the buffered encoder against hashing the
// same bytes in one piece, across buffer flushes and strings longer
// than the buffer.
func TestKeyBufStreams(t *testing.T) {
	kb := &keyBuf{h: sha256.New()}
	var flat []byte
	for i := range 300 {
		s := strings.Repeat("x", i*7%1500)
		kb.str(s)
		kb.tag(byte(i))
		kb.i64(int64(-i))
		flat = binary.LittleEndian.AppendUint64(flat, uint64(len(s)))
		flat = append(append(flat, s...), byte(i))
		flat = binary.LittleEndian.AppendUint64(flat, uint64(int64(-i)))
	}
	if got, want := kb.sum(), Key(sha256.Sum256(flat)); got != want {
		t.Fatalf("streamed key %v, want %v", got, want)
	}
}
