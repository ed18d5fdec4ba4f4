package main

import (
	"context"
	"fmt"
	"net"
	"time"

	"repro/internal/ipdsclient"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/server"
	"repro/internal/tables"
	"repro/internal/tcache"
	"repro/internal/workload"
)

// daemon is the in-process verification daemon, configured the way
// `ipdsd -all` configures it: every paper server compiled through a
// cold cache and registered, registry and tracer on, flight recorder
// and incident stage at their defaults (on), verifiers = GOMAXPROCS.
type daemon struct {
	reg    *obs.Registry
	srv    *server.Server
	addr   string
	store  *server.ImageStore
	hashes map[string][32]byte // server name → image hash
	blobs  int                 // marshalled bytes of every registered image
	served chan error          // Serve's return value
}

// setupTimes is one set-up's breakdown; setup_s reports total, scaled
// to the reference host speed.
type setupTimes struct {
	total, compile, dial time.Duration
}

// clients are one set-up's sessions: a pair for each loop.
type clients struct{ paced, sat [2]*ipdsclient.Client }

// startDaemon cold-compiles the ten images, registers them, starts the
// server on a loopback port and dials both loops' sessions with the
// given client settings (the open loop's through taps), returning once
// every handshake has completed.
func startDaemon(paced, sat ipdsclient.Config, taps [2]*tap) (*daemon, clients, setupTimes, error) {
	var (
		cl clients
		st setupTimes
	)
	t0 := time.Now()
	reg := obs.NewRegistry()
	tr := obs.NewTracer(reg)
	cache, err := tcache.New(1024, "")
	if err != nil {
		return nil, cl, st, err
	}
	store := server.NewImageStore(cache)
	d := &daemon{reg: reg, store: store, hashes: map[string][32]byte{}, served: make(chan error, 1)}
	for _, w := range workload.All() {
		art, err := pipeline.CompileWith(w.Source, ir.DefaultOptions, pipeline.Config{Cache: cache}, tr)
		if err != nil {
			return nil, cl, st, fmt.Errorf("compile %s: %w", w.Name, err)
		}
		d.hashes[w.Name] = store.Add(w.Name, art.Image)
	}
	st.compile = time.Since(t0)
	d.srv = server.New(store, server.Config{Reg: reg, Tracer: tr})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.srv.Shutdown(context.Background())
		return nil, cl, st, err
	}
	d.addr = ln.Addr().String()
	go func() { d.served <- d.srv.Serve(ln) }()
	t1 := time.Now()
	if cl.paced, err = d.dial(paced, taps); err == nil {
		cl.sat, err = d.dial(sat, [2]*tap{})
	}
	if err != nil {
		d.stop(cl)
		return nil, cl, st, err
	}
	st.dial = time.Since(t1)
	st.total = time.Since(t0)
	for h := range store.Images() {
		if b, ok := store.Blob(h); ok {
			d.blobs += len(b)
		}
	}
	return d, cl, st, nil
}

// dial opens one session per replayed server, through taps[i] when it
// is non-nil. Addr, Image and Program of cfg are filled in per session.
func (d *daemon) dial(cfg ipdsclient.Config, taps [2]*tap) ([2]*ipdsclient.Client, error) {
	var out [2]*ipdsclient.Client
	for i, name := range servers {
		cfg.Addr, cfg.Image, cfg.Program = d.addr, d.hashes[name], name
		c, err := dialVia(cfg, taps[i])
		if err != nil {
			closeAll(out)
			return out, fmt.Errorf("dial %s: %w", name, err)
		}
		out[i] = c
	}
	return out, nil
}

// dialVia is ipdsclient.Dial, with the connection wrapped by t when t
// is non-nil.
func dialVia(cfg ipdsclient.Config, t *tap) (*ipdsclient.Client, error) {
	if t == nil {
		return ipdsclient.Dial(cfg)
	}
	conn, err := net.DialTimeout("tcp", cfg.Addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	conn.(*net.TCPConn).SetNoDelay(true)
	t.Conn = conn
	return ipdsclient.DialConn(t, cfg)
}

// image returns the registered image of a paper server.
func (d *daemon) image(name string) *tables.Image {
	img, _ := d.store.Resolve(d.hashes[name])
	return img
}

// closeAll closes every non-nil client.
func closeAll(clients [2]*ipdsclient.Client) {
	for _, c := range clients {
		if c != nil {
			c.Close()
		}
	}
}

// settle round-trips each stream's lead on its session. The server
// starts a session's reader only after acking its hello, so a Shutdown
// right after the handshakes would race with that start.
func settle(cl clients, paced, sat [2]*stream) error {
	for i := range servers {
		for _, p := range []struct {
			c *ipdsclient.Client
			s *stream
		}{{cl.paced[i], paced[i]}, {cl.sat[i], sat[i]}} {
			if err := p.c.Send(p.s.lead...); err != nil {
				return err
			}
			if err := p.c.Drain(); err != nil {
				return err
			}
		}
	}
	return nil
}

// stop closes the clients, drains the server and waits for Serve to
// return.
func (d *daemon) stop(cl clients) error {
	closeAll(cl.paced)
	closeAll(cl.sat)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.served; err == nil {
		err = serr
	}
	return err
}
