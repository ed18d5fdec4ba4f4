package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/ipdsclient"
	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/internal/wire"
	"repro/internal/workload"
)

// The gate scripts read ipdsload's report with sed; these are the same
// patterns, so a change to either line shows up here, not as a gate
// that silently fails to parse.
var (
	// scripts/checkscale.sh
	throughputRe = regexp.MustCompile(`(?m)^-- throughput: ([0-9][0-9]*) events/sec aggregate$`)
	// scripts/checkincidentflood.sh: grep '^-- incidents: ', then sed.
	incidentsRe = regexp.MustCompile(`(?m)^-- incidents: .*$`)
	droppedRe   = regexp.MustCompile(`.*, ([0-9][0-9]*) dropped\).*`)
)

func runLoad(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("ipdsload %s: exit %d\nstdout:\n%s\nstderr:\n%s",
			strings.Join(args, " "), code, out.String(), errOut.String())
	}
	return out.String(), errOut.String()
}

func TestSelfServeReportLines(t *testing.T) {
	out, _ := runLoad(t, "-selfserve", "-workload", "telnetd", "-sessions", "2",
		"-events", "4000", "-tamper", "97", "-incidents", "-repeat", "2")

	m := throughputRe.FindStringSubmatch(out)
	if m == nil || m[1] == "0" {
		t.Fatalf("no nonzero throughput line in:\n%s", out)
	}
	line := incidentsRe.FindString(out)
	d := droppedRe.FindStringSubmatch(line)
	if d == nil {
		t.Fatalf("incident line %q does not parse; output:\n%s", line, out)
	}
	if d[1] != "0" {
		t.Errorf("incident stage dropped %s alarm(s) on a 2-session load", d[1])
	}
	if n := strings.Count(out, "-- run "); n != 2 {
		t.Errorf("-repeat 2 printed %d run lines, want 2", n)
	}
}

// An events file that enters a frame and never leaves it gains one
// table frame per loop of the trace. Looped past the daemon's
// call-depth limit (512), the session would end with ErrLimit unless
// ipdsload closes the file's open frames first.
func TestEventsFileUnbalancedIsClosed(t *testing.T) {
	w := workload.ByName("telnetd")
	art, err := pipeline.CompileWith(w.Source, ir.DefaultOptions, pipeline.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Take a real function entry and a branch inside that function from
	// a capture, so the pair is a legal prefix of a telnetd run.
	var stack []wire.Event
	var pair []wire.Event
	for _, e := range ipdsclient.Capture(art, w.AttackSession) {
		switch e.Kind {
		case wire.EvEnter:
			stack = append(stack, e)
		case wire.EvLeave:
			stack = stack[:len(stack)-1]
		case wire.EvBranch:
			if pair == nil && len(stack) > 0 {
				pair = []wire.Event{stack[len(stack)-1], e}
			}
		}
	}
	if pair == nil {
		t.Fatal("capture has no branch inside a frame")
	}
	path := filepath.Join(t.TempDir(), "open.events")
	var buf bytes.Buffer
	if err := wire.WriteEventsText(&buf, pair); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	// 4000 events of a 2-event trace is 2000 passes unclosed, 1333
	// closed: well past the 512-frame limit either way.
	out, errOut := runLoad(t, "-selfserve", "-workload", "telnetd", "-sessions", "1",
		"-events", "4000", "-events-file", path)
	if !strings.Contains(errOut, "appended 1 leave(s)") {
		t.Errorf("stderr does not report the added leave:\n%s", errOut)
	}
	if strings.Contains(out+errOut, "limit") {
		t.Errorf("session hit a limit:\nstdout:\n%s\nstderr:\n%s", out, errOut)
	}
	if throughputRe.FindString(out) == "" {
		t.Errorf("no throughput line in:\n%s", out)
	}
}

func TestCloseFrames(t *testing.T) {
	enter := wire.Event{Kind: wire.EvEnter, PC: 0x40}
	leave := wire.Event{Kind: wire.EvLeave}
	branch := wire.Event{Kind: wire.EvBranch, PC: 0x44}
	for _, tc := range []struct {
		name string
		in   []wire.Event
		want int
	}{
		{"balanced", []wire.Event{enter, branch, leave}, 0},
		{"open", []wire.Event{enter, branch, enter, branch}, 2},
		// A leave at depth 0 pops nothing in the kernel, so it must not
		// cancel a later enter.
		{"stray leave", []wire.Event{leave, enter, branch}, 1},
		{"empty", nil, 0},
	} {
		out, added := closeFrames(append([]wire.Event(nil), tc.in...))
		if added != tc.want || len(out) != len(tc.in)+tc.want {
			t.Errorf("%s: added %d (len %d), want %d", tc.name, added, len(out), tc.want)
		}
		for _, e := range out[len(tc.in):] {
			if e != leave {
				t.Errorf("%s: appended %v, want leave", tc.name, e)
			}
		}
	}
}
