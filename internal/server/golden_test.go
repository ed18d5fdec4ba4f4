package server_test

import (
	"testing"

	"repro/internal/ipds"
	"repro/internal/ipdsclient"
	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/internal/server"
	"repro/internal/workload"
)

// TestGoldenEquivalenceThreePaths is the behavioural anchor for the
// zero-allocation kernel: one tampered telnetd trace fed through
//
//  1. the per-event API (EnterFunc/LeaveFunc/OnBranch, the kernel's
//     single-event case),
//  2. the batched kernel (Machine.OnBatch, daemon-sized batches), and
//  3. a live daemon session (ipdsclient over the wire protocol),
//
// must produce identical alarms (every field), identical machine Stats
// and identical final table-stack depth. Any divergence means the
// serving layers changed behaviour, not just speed. All three paths
// run the same kernel; the independent reference it is checked against
// is the linked-list oracle in internal/ipds (TestKernelMatchesOracle).
func TestGoldenEquivalenceThreePaths(t *testing.T) {
	w := workload.ByName("telnetd")
	if w == nil {
		t.Fatal("telnetd workload missing")
	}
	art, err := pipeline.Compile(w.Source, ir.DefaultOptions)
	if err != nil {
		t.Fatalf("compile telnetd: %v", err)
	}
	trace := ipdsclient.Tamper(ipdsclient.Capture(art, w.AttackSession), 31)
	if len(trace) == 0 {
		t.Fatal("empty telnetd trace")
	}

	// Path 1: per-event entry point.
	ref := ipds.New(art.Image, ipds.DefaultConfig)
	refAlarms := ipdsclient.ReplayLocal(ref, trace)
	if len(refAlarms) == 0 {
		t.Fatal("tampered trace raised no reference alarms; equivalence would be vacuous")
	}

	// Path 2: batched kernel, daemon-sized batches.
	bat := ipds.New(art.Image, ipds.DefaultConfig)
	batAlarms := ipdsclient.ReplayLocalBatched(bat, trace, 256)
	if len(batAlarms) != len(refAlarms) {
		t.Fatalf("OnBatch raised %d alarms, per-event %d", len(batAlarms), len(refAlarms))
	}
	for i := range refAlarms {
		if batAlarms[i] != refAlarms[i] {
			t.Errorf("alarm %d: OnBatch %+v, per-event %+v", i, batAlarms[i], refAlarms[i])
		}
	}
	if ref.Stats() != bat.Stats() {
		t.Errorf("stats diverge:\n per-event %+v\n batched   %+v", ref.Stats(), bat.Stats())
	}
	if ref.Depth() != bat.Depth() {
		t.Errorf("final stack depth: per-event %d, batched %d", ref.Depth(), bat.Depth())
	}
	// Path 3: the daemon, which routes sessions through the same OnBatch
	// kernel behind pooled decode/encode buffers.
	world := startWorldWith(t, art, "telnetd", server.Config{})
	c, err := ipdsclient.Dial(ipdsclient.Config{
		Addr: world.addr, Image: world.hash, Program: "golden", Batch: 256,
	})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if err := c.Send(trace...); err != nil {
		t.Fatalf("send: %v", err)
	}
	if err := c.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	requireAlarmsEqual(t, refAlarms, c.Alarms())
	if got, want := c.Acked(), uint64(len(trace)); got != want {
		t.Fatalf("daemon acked %d events, want %d", got, want)
	}
	c.Close()
	world.waitSessions(t, 0)

	// The daemon absorbs its machine's counters on session retirement;
	// they must match the reference machine's Stats exactly.
	st := ref.Stats()
	if got := world.reg.Counter("server_machine_branches_total").Value(); got != st.Branches {
		t.Errorf("server_machine_branches_total = %d, want %d", got, st.Branches)
	}
	if got := world.reg.Counter("server_machine_verified_total").Value(); got != st.Verified {
		t.Errorf("server_machine_verified_total = %d, want %d", got, st.Verified)
	}
	if got := world.reg.Counter("server_alarms_total").Value(); got != st.Alarms {
		t.Errorf("server_alarms_total = %d, want %d", got, st.Alarms)
	}
	if got := world.reg.Counter("server_events_total").Value(); got != uint64(len(trace)) {
		t.Errorf("server_events_total = %d, want %d", got, len(trace))
	}
}
