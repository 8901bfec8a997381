package main

// The served stack, assembled in-process from the constructors and
// defaults cmd/rosd uses for `rosd -data dir [-datasync]`: a FileVolume
// with 512-byte blocks, a hybrid-backend guardian with the index on,
// a server with rosd's default Config, and rosd's get/put handlers.

import (
	"errors"
	"fmt"
	"net"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/guardian"
	"repro/internal/ids"
	"repro/internal/object"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/stablelog"
	"repro/internal/twopc"
	"repro/internal/value"
)

const (
	guardianID    = ids.GuardianID(1)
	dataBlockSize = 512 // rosd's -data block size
)

// rosdConfig is rosd's server.Config at its flag defaults.
func rosdConfig(tr obs.Tracer) server.Config {
	return server.Config{Workers: 8, MaxConns: 64, Tracer: tr}
}

// node is one served incarnation of the store.
type node struct {
	vol       *stablelog.FileVolume
	g         *guardian.Guardian
	srv       *server.Server
	addr      string
	served    chan error
	logAtOpen uint64
}

// openNode recovers the guardian on dir and serves it on a loopback
// port, as a restarted rosd does. tr is nil for an untraced stack.
func openNode(dir string, datasync bool, tr obs.Tracer, ht *handlerTimer) (*node, error) {
	vol, err := stablelog.NewFileVolume(dir, dataBlockSize, datasync)
	if err != nil {
		return nil, fmt.Errorf("open volume: %w", err)
	}
	g, err := guardian.Open(guardianID, vol, core.BackendHybrid, guardian.WithTracer(tr))
	if err != nil {
		vol.Close()
		return nil, fmt.Errorf("recover guardian: %w", err)
	}
	if err := settleSelf(g); err != nil {
		vol.Close()
		return nil, fmt.Errorf("settle recovered actions: %w", err)
	}
	registerKV(g, ht)
	return serve(vol, g, tr)
}

func serve(vol *stablelog.FileVolume, g *guardian.Guardian, tr obs.Tracer) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		vol.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	n := &node{
		vol: vol, g: g, srv: server.New(g, rosdConfig(tr)),
		addr: ln.Addr().String(), served: make(chan error, 1),
		logAtOpen: g.RS().LogBytes(),
	}
	go func() { n.served <- n.srv.Serve(ln) }()
	return n, nil
}

// close drains the server and closes the volume: the file-backed
// guardian is gone, and only what reached the files remains.
func (n *node) close() error {
	err := n.srv.Close()
	if serr := <-n.served; !errors.Is(serr, server.ErrClosed) && err == nil {
		err = serr
	}
	if verr := n.vol.Close(); err == nil {
		err = verr
	}
	return err
}

// newClient returns a client of n; rec, when non-nil, wraps its
// connections.
func (n *node) newClient(tr obs.Tracer, rec *connRec) *client.Client {
	opt := client.Options{Tracer: tr}
	if rec != nil {
		opt.Dial = rec.dial
	}
	return client.New(n.addr, opt)
}

// settleSelf resolves the recovered guardian's own in-doubt actions
// exactly as rosd does on restart.
func settleSelf(g *guardian.Guardian) error {
	for _, aid := range g.InDoubt() {
		if aid.Coordinator != g.ID() {
			continue
		}
		var err error
		if g.OutcomeOf(aid) == twopc.OutcomeCommitted {
			err = g.HandleCommit(aid)
		} else {
			err = g.HandleAbort(aid)
		}
		if err != nil {
			return fmt.Errorf("action %v: %w", aid, err)
		}
	}
	return nil
}

// registerKV installs rosd's get and put handlers, with the same
// semantics as cmd/rosd. ht, when non-nil, times the handler bodies.
func registerKV(g *guardian.Guardian, ht *handlerTimer) {
	keyObj := func(sub *guardian.Sub, key string, create bool) (*object.Atomic, error) {
		if o, ok := g.VarAtomic(key); ok {
			return o, nil
		}
		if !create {
			return nil, fmt.Errorf("no such key %q", key)
		}
		o, err := sub.NewAtomic(value.Int(0))
		if err != nil {
			return nil, err
		}
		if err := sub.SetVar(key, o); err != nil {
			return nil, err
		}
		return o, nil
	}
	get := func(sub *guardian.Sub, arg value.Value) (value.Value, error) {
		key, ok := arg.(value.Str)
		if !ok {
			return nil, fmt.Errorf("get wants a Str key")
		}
		o, err := keyObj(sub, string(key), false)
		if err != nil {
			return nil, err
		}
		return sub.Read(o)
	}
	put := func(sub *guardian.Sub, arg value.Value) (value.Value, error) {
		l, ok := arg.(*value.List)
		if !ok || len(l.Elems) != 2 {
			return nil, fmt.Errorf("put wants List[key, value]")
		}
		key, ok := l.Elems[0].(value.Str)
		if !ok {
			return nil, fmt.Errorf("put wants a Str key")
		}
		o, err := keyObj(sub, string(key), true)
		if err != nil {
			return nil, err
		}
		if err := sub.Set(o, l.Elems[1]); err != nil {
			return nil, err
		}
		return sub.Read(o)
	}
	if ht != nil {
		put = ht.wrap(put)
	}
	g.RegisterHandler("get", get)
	g.RegisterHandler("put", put)
}

func (ht *handlerTimer) wrap(fn guardian.HandlerFunc) guardian.HandlerFunc {
	return func(sub *guardian.Sub, arg value.Value) (value.Value, error) {
		t0 := now()
		v, err := fn(sub, arg)
		ht.ns.Add(now() - t0)
		ht.calls.Add(1)
		return v, err
	}
}
