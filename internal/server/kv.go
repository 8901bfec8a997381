package server

import (
	"fmt"

	"repro/internal/guardian"
	"repro/internal/object"
	"repro/internal/value"
)

// RegisterKV installs the durable key/value handlers rosd serves:
//
//	get  (Str key)                        -> stored value, or error
//	put  (List[Str key, V])               -> V
//	incr (Str key | List[Str key, Int d]) -> Int new total (a missing
//	     key starts at 0; a key holding a non-Int is an error)
//
// Keys are stable variables holding atomic objects, so every committed
// put/incr survives a crash and every action sees a consistent version
// (§2.1). A malformed argument is an error, never a panic; a handler
// error aborts its subaction, so a refused call changes nothing.
func RegisterKV(g *guardian.Guardian) {
	// keyObj fetches (or, when create is set, makes and registers) the
	// atomic behind a key.
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

	g.RegisterHandler("get", func(sub *guardian.Sub, arg value.Value) (value.Value, error) {
		key, ok := arg.(value.Str)
		if !ok {
			return nil, fmt.Errorf("get wants a Str key")
		}
		o, err := keyObj(sub, string(key), false)
		if err != nil {
			return nil, err
		}
		return sub.Read(o)
	})

	g.RegisterHandler("put", func(sub *guardian.Sub, arg value.Value) (value.Value, error) {
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
	})

	g.RegisterHandler("incr", func(sub *guardian.Sub, arg value.Value) (value.Value, error) {
		key, delta, err := incrArgs(arg)
		if err != nil {
			return nil, err
		}
		o, err := keyObj(sub, key, true)
		if err != nil {
			return nil, err
		}
		// The type check runs under the write lock Update takes, so no
		// concurrent put can slip a non-Int in between check and add.
		notInt := false
		if err := sub.Update(o, func(cur value.Value) value.Value {
			n, ok := cur.(value.Int)
			if !ok {
				notInt = true
				return cur
			}
			return n + delta
		}); err != nil {
			return nil, err
		}
		if notInt {
			return nil, fmt.Errorf("incr %q: value is not an Int", key)
		}
		return sub.Read(o)
	})
}

// incrArgs accepts incr's two argument shapes: a bare key (delta 1) or
// List[key, delta].
func incrArgs(arg value.Value) (string, value.Int, error) {
	switch a := arg.(type) {
	case value.Str:
		return string(a), 1, nil
	case *value.List:
		if len(a.Elems) == 2 {
			key, kok := a.Elems[0].(value.Str)
			delta, dok := a.Elems[1].(value.Int)
			if kok && dok {
				return string(key), delta, nil
			}
		}
	}
	return "", 0, fmt.Errorf("incr wants a Str key or List[key, delta]")
}
