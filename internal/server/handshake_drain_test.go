package server_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/ipdsclient"
	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/internal/server"
)

// TestShutdownRacesHandshake runs concurrent dial+Hello handshakes
// against Shutdown, many times over. Shutdown starts the instant the
// first client reads its HelloAck — while the server side is still
// between that write and starting the session's reader. The reader
// must join the drain barrier when the session registers, not after
// the HelloAck write: otherwise Shutdown can stop waiting before that
// reader exists and return with the session never drained (and, under
// -race, the WaitGroup Add races its Wait). A reader that starts just
// as the drain begins must also not lose Shutdown's deadline poke to
// its own first read deadline, or the drain stalls for a full
// ReadTimeout. When Shutdown returns, every session it ever registered
// must be unregistered.
func TestShutdownRacesHandshake(t *testing.T) {
	art, err := pipeline.Compile(guardSrc, ir.DefaultOptions)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	rounds := 60
	if testing.Short() {
		rounds = 15
	}
	for round := 0; round < rounds; round++ {
		w := startWorldWith(t, art, "guard", server.Config{})
		var (
			wg       sync.WaitGroup
			once     sync.Once
			shutErr  error
			shutDone = make(chan struct{})
			mu       sync.Mutex
			clients  []*ipdsclient.Client
		)
		shut := func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			shutErr = w.srv.Shutdown(ctx)
			close(shutDone)
		}
		for i := 0; i < 3; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c, err := ipdsclient.Dial(ipdsclient.Config{
					Addr: w.addr, Image: w.hash, Program: "racer", Timeout: 2 * time.Second,
				})
				if err != nil {
					return // refused by the drain: never registered
				}
				once.Do(shut)
				mu.Lock()
				clients = append(clients, c)
				mu.Unlock()
			}()
		}
		wg.Wait()
		once.Do(shut) // every dial refused: still shut this round's server
		<-shutDone
		if shutErr != nil {
			t.Fatalf("round %d: shutdown: %v", round, shutErr)
		}
		if n := w.srv.ActiveSessions(); n != 0 {
			t.Fatalf("round %d: %d of %d registered sessions still live after Shutdown returned",
				round, n, w.reg.Counter("server_sessions_total").Value())
		}
		for _, c := range clients {
			c.Close()
		}
	}
}
