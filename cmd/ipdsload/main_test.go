package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
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
	// scripts/checkincidentflood.sh: the load summary line's delivered
	// alarms and the incident line's analyzed ones.
	summaryRe   = regexp.MustCompile(`(?m)^-- [^ ]*: [0-9][0-9]* sessions, .* \(([0-9][0-9]*) alarms, .*$`)
	incidentsRe = regexp.MustCompile(`(?m)^-- incidents: ([0-9][0-9]*) alarm\(s\) .*$`)
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
	sum, inc := summaryRe.FindStringSubmatch(out), incidentsRe.FindStringSubmatch(out)
	if sum == nil || inc == nil {
		t.Fatalf("summary or incident line does not parse; output:\n%s", out)
	}
	// Both runs replay the same trace, so the analyzer holds twice the
	// alarms the summary line reports delivered by one.
	delivered, _ := strconv.Atoi(sum[1])
	if analyzed, _ := strconv.Atoi(inc[1]); delivered == 0 || analyzed != 2*delivered {
		t.Errorf("analyzer holds %d alarms of 2 runs delivering %d each", analyzed, delivered)
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
