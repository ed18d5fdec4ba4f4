package server_test

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/ipds"
	"repro/internal/ipdsclient"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/server"
	"repro/internal/workload"
)

// TestScalePerCoreMatchesLocal is the multi-core correctness stress:
// 64 sessions served concurrently, each on its own goroutine, which Go's
// scheduler spreads across every P — and every session's alarm stream
// must still match a single-core in-process replay event for event.
// Run under -race this doubles as the serve path's ownership audit:
// any machine or write-buffer access crossing its session's goroutine
// is a detected race.
func TestScalePerCoreMatchesLocal(t *testing.T) {
	const sessions = 64

	w := workload.ByName("telnetd")
	if w == nil {
		t.Fatal("telnetd workload missing")
	}
	art, err := pipeline.Compile(w.Source, ir.DefaultOptions)
	if err != nil {
		t.Fatalf("compile %s: %v", w.Name, err)
	}
	store := server.NewImageStore(nil)
	hash := store.Add(w.Name, art.Image)
	reg := obs.NewRegistry()
	srv := server.New(store, server.Config{Reg: reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	addr := ln.Addr().String()

	trace := ipdsclient.Tamper(ipdsclient.Capture(art, w.AttackSession), 17)
	ref := ipdsclient.ReplayLocal(ipds.New(art.Image, ipds.DefaultConfig), trace)
	if len(ref) == 0 {
		t.Fatal("tampered telnetd trace raised no reference alarms; test is vacuous")
	}

	var wg sync.WaitGroup
	errCh := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// Small client batches: many frames, passes and reply writes
			// per session.
			c, err := ipdsclient.Dial(ipdsclient.Config{
				Addr: addr, Image: hash, Program: w.Name, Batch: 64,
			})
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			if err := c.Send(trace...); err != nil {
				errCh <- err
				return
			}
			if err := c.Drain(); err != nil {
				errCh <- err
				return
			}
			got := c.Alarms()
			if len(got) != len(ref) {
				t.Errorf("session %d: %d alarms, want %d", id, len(got), len(ref))
				return
			}
			for j, a := range got {
				r := ref[j]
				if a.Seq != r.Seq || a.PC != r.PC || a.Func != r.Func ||
					a.Slot != uint32(r.Slot) || a.Expected != uint8(r.Expected) || a.Taken != r.Taken {
					t.Errorf("session %d alarm %d: got %+v, want %+v", id, j, a, r)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Errorf("session: %v", err)
	}

	// The CoreStats rows must account for every event exactly once.
	stats := srv.CoreStats()
	var events, summed, verifyNs uint64
	for _, cs := range stats {
		events += cs.Events
		summed += cs.SessionsTotal
		verifyNs += cs.VerifyNs
		// Sessions are summed into rows by id: with no more rows than
		// sessions, every row holds some.
		if cs.SessionsTotal == 0 && len(stats) <= sessions {
			t.Errorf("row %d was never summed a session", cs.Core)
		}
	}
	if want := uint64(len(trace)) * sessions; events != want {
		t.Errorf("per-row events sum to %d, want %d", events, want)
	}
	if summed != sessions {
		t.Errorf("per-row sessions_total sum to %d, want %d", summed, sessions)
	}
	// Kernel time accounting: the sessions that verified events spent
	// wall time doing it (the ipdsload kernel_ns_per_event source).
	if verifyNs == 0 {
		t.Error("per-row verify_ns sum to 0 after verifying events")
	}
}
