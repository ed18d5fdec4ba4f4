package wire

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// goldenText is the canonical textual event form documented in text.go
// and DESIGN.md §7: the exact bytes `ipdsrun -eventfile` emits for the
// event sequence below. Changing the format is a wire-compatibility
// change and must update this golden alongside the docs.
const goldenText = `enter 0x40
branch 0x4a T
branch 0x52 NT
enter 0x80
branch 0x92 NT
leave
branch 0x4a T
leave
`

func goldenEvents() []Event {
	return []Event{
		{Kind: EvEnter, PC: 0x40},
		{Kind: EvBranch, PC: 0x4a, Taken: true},
		{Kind: EvBranch, PC: 0x52},
		{Kind: EvEnter, PC: 0x80},
		{Kind: EvBranch, PC: 0x92},
		{Kind: EvLeave},
		{Kind: EvBranch, PC: 0x4a, Taken: true},
		{Kind: EvLeave},
	}
}

// TestTextWireTextGolden is the satellite round trip: text → wire →
// text must reproduce the golden bytes, and wire → text → wire must
// reproduce the frame bytes.
func TestTextWireTextGolden(t *testing.T) {
	// text → events
	evs, err := ReadEventsText(strings.NewReader(goldenText))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(evs, goldenEvents()) {
		t.Fatalf("parsed events mismatch:\n got %#v\nwant %#v", evs, goldenEvents())
	}

	// events → wire → events
	frame, err := Append(nil, Batch{Events: evs})
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := Decode(frame[4:])
	if err != nil {
		t.Fatal(err)
	}
	got := decoded.(Batch).Events
	if !reflect.DeepEqual(got, evs) {
		t.Fatal("wire round trip changed the event stream")
	}

	// events → text: byte-identical with the golden form.
	var buf bytes.Buffer
	if err := WriteEventsText(&buf, got); err != nil {
		t.Fatal(err)
	}
	if buf.String() != goldenText {
		t.Fatalf("text round trip:\n got %q\nwant %q", buf.String(), goldenText)
	}

	// wire → text → wire: frame bytes identical.
	reframe, err := Append(nil, Batch{Events: got})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame, reframe) {
		t.Fatal("re-encoded frame bytes differ")
	}
}

func TestTextCommentsAndBlanks(t *testing.T) {
	in := "# header comment\n\n  enter 0x10\n\n# mid\nbranch 16 T\nleave\n"
	evs, err := ReadEventsText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{{Kind: EvEnter, PC: 0x10}, {Kind: EvBranch, PC: 16, Taken: true}, {Kind: EvLeave}}
	if !reflect.DeepEqual(evs, want) {
		t.Fatalf("got %#v want %#v", evs, want)
	}
}

func TestTextRejectsMalformed(t *testing.T) {
	for _, line := range []string{
		"enter", "enter zz", "leave 0x10", "branch 0x10", "branch 0x10 X",
		"branch T", "jump 0x10", "branch 0x10 T extra",
	} {
		if _, err := ParseEventText(line); err == nil {
			t.Errorf("ParseEventText(%q) accepted malformed line", line)
		}
		if _, err := ReadEventsText(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("ReadEventsText(%q) accepted malformed line", line)
		}
	}
}

// FuzzParseEventText feeds ParseEventText arbitrary lines. It must not
// panic, and every event it accepts must render (Event.Text) to a line
// that parses back to the same event.
func FuzzParseEventText(f *testing.F) {
	for _, line := range strings.Split(goldenText, "\n") {
		f.Add(line)
	}
	for _, line := range []string{"", "#", "  enter 64  ", "branch 0X4A T", "branch 0b101 NT", "enter 0o17",
		"branch 0x1_0 T", "enter 0xffffffffffffffff", "enter 0x10000000000000000", "leave x", "branch 0x4a"} {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line string) {
		ev, err := ParseEventText(line)
		if err != nil {
			return
		}
		again, err := ParseEventText(ev.Text())
		if err != nil {
			t.Fatalf("%q parsed to %+v, whose text %q does not parse: %v", line, ev, ev.Text(), err)
		}
		if again != ev {
			t.Fatalf("%q parsed to %+v, but its text %q parses to %+v", line, ev, ev.Text(), again)
		}
	})
}
