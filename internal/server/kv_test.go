package server

import (
	"errors"
	"testing"

	"repro/internal/client"
	"repro/internal/guardian"
	"repro/internal/value"
)

// newKV serves a fresh guardian carrying RegisterKV's handlers and
// returns it with a client.
func newKV(t *testing.T) (*guardian.Guardian, *client.Client) {
	t.Helper()
	g, err := guardian.New(1)
	if err != nil {
		t.Fatal(err)
	}
	RegisterKV(g)
	_, addr := startServer(t, g, Config{})
	c := client.New(addr, client.Options{PoolSize: 1})
	t.Cleanup(func() { c.Close() })
	return g, c
}

func TestKVPutGetIncr(t *testing.T) {
	_, c := newKV(t)
	mustInvoke := func(handler string, arg, want value.Value) {
		t.Helper()
		got, err := c.Invoke(handler, arg)
		if err != nil {
			t.Fatalf("%s %v: %v", handler, arg, err)
		}
		if !value.Equal(got, want) {
			t.Fatalf("%s %v = %v, want %v", handler, arg, got, want)
		}
	}
	mustInvoke("put", value.NewList(value.Str("k"), value.Str("v")), value.Str("v"))
	mustInvoke("get", value.Str("k"), value.Str("v"))
	mustInvoke("incr", value.Str("n"), value.Int(1))
	mustInvoke("incr", value.NewList(value.Str("n"), value.Int(5)), value.Int(6))
	mustInvoke("get", value.Str("n"), value.Int(6))
}

// TestKVIncrNonInt: incr on a key holding a non-Int value is an error
// and leaves the value as it was (it used to overwrite it with delta).
func TestKVIncrNonInt(t *testing.T) {
	g, c := newKV(t)
	if _, err := c.Invoke("put", value.NewList(value.Str("k"), value.Str("hello"))); err != nil {
		t.Fatal(err)
	}
	for _, arg := range []value.Value{value.Str("k"), value.NewList(value.Str("k"), value.Int(3))} {
		if got, err := c.Invoke("incr", arg); err == nil {
			t.Fatalf("incr %v on a Str value = %v, want an error", arg, got)
		}
	}
	got, err := c.Invoke("get", value.Str("k"))
	if err != nil {
		t.Fatal(err)
	}
	if !value.Equal(got, value.Str("hello")) {
		t.Fatalf("get k = %v after a refused incr, want hello", got)
	}
	if live := g.LiveActions(); len(live) != 0 {
		t.Fatalf("live actions after refused incrs: %v", live)
	}
}

// TestKVMalformedArgs: every malformed argument is an application
// error (not a panic, not a retry), and nothing is created or changed.
func TestKVMalformedArgs(t *testing.T) {
	g, c := newKV(t)
	if _, err := c.Invoke("put", value.NewList(value.Str("k"), value.Int(7))); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		handler string
		arg     value.Value
	}{
		{"put", nil},
		{"put", value.Str("k")},
		{"put", value.NewList(value.Str("k"))},
		{"put", value.NewList(value.Str("k"), value.Int(1), value.Int(2))},
		{"put", value.NewList(value.Int(1), value.Int(2))},
		{"incr", nil},
		{"incr", value.Int(1)},
		{"incr", value.NewList(value.Str("k"))},
		{"incr", value.NewList(value.Str("k"), value.Str("1"))},
		{"incr", value.NewList(value.Int(1), value.Int(1))},
		{"get", nil},
		{"get", value.Int(1)},
		{"get", value.NewList(value.Str("k"))},
		{"get", value.Str("missing")},
	}
	for _, tc := range cases {
		got, err := c.Invoke(tc.handler, tc.arg)
		if err == nil {
			t.Errorf("%s %v = %v, want an error", tc.handler, tc.arg, got)
			continue
		}
		if errors.Is(err, client.ErrBusy) {
			t.Errorf("%s %v: %v, want an application error", tc.handler, tc.arg, err)
		}
	}
	got, err := c.Invoke("get", value.Str("k"))
	if err != nil {
		t.Fatal(err)
	}
	if !value.Equal(got, value.Int(7)) {
		t.Fatalf("get k = %v after malformed calls, want 7", got)
	}
	if _, ok := g.VarAtomic("missing"); ok {
		t.Fatal("a refused call created a key")
	}
}
