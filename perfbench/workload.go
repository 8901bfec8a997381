package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/guardian"
	"repro/internal/stablelog"
	"repro/internal/transport"
	"repro/internal/value"
)

const (
	nKeys         = 10000
	valueSize     = 100
	batchKeys     = 16  // keys per GetBatch
	zipfS         = 1.1 // read skew
	preloadPerAct = 100 // puts per set-up action while preloading
)

// workload is one traffic mix. Every field is recorded in
// BENCHMARK.json's workload list and README.md.
type workload struct {
	name     string
	datasync bool // rosd -datasync: fsync every block write
	writers  int  // closed-loop put callers
	readers  int  // closed-loop GetBatch callers
	// putsPerRead, when set, makes each writer issue one GetBatch after
	// every putsPerRead puts, on its own connection.
	putsPerRead int
	history     int // single-put actions committed in set-up after the preload
	setups      int // set-up repetitions; setup_s is their median
	reopens     int // timed reopens before the main phase
	// cycles replaces the main phase with timed reopens, each followed
	// by cyclePuts puts per writer and cycleReads GetBatch ops per
	// reader on the recovered store; at least minCycles run.
	cycles                bool
	cyclePuts, cycleReads int
	minCycles             int
}

var workloads = map[string]workload{
	"durable": {name: "durable", datasync: true, writers: 2, putsPerRead: 4, setups: 5, reopens: 11},
	"mixed":   {name: "mixed", writers: 1, readers: 1, setups: 5, reopens: 11},
	"restart": {name: "restart", writers: 1, readers: 1, history: 100000, setups: 3, cycles: true, cyclePuts: 2500, cycleReads: 2500, minCycles: 3},
}

// gen derives the benchmark's random streams: each is a pure function
// of (workload, seed, stream name).
type gen struct {
	workload string
	seed     int64
}

func (g gen) rng(stream string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%s", g.workload, g.seed, stream)
	return rand.New(rand.NewSource(int64(h.Sum64() & math.MaxInt64)))
}

// zipfKeys draws key indices with skew zipfS over a seeded permutation
// of the key space, so the hot keys differ by seed.
type zipfKeys struct {
	z    *rand.Zipf
	perm []int
}

func (g gen) zipf(stream string) *zipfKeys {
	r := g.rng(stream)
	return &zipfKeys{z: rand.NewZipf(r, zipfS, 1, nKeys-1), perm: r.Perm(nKeys)}
}

func (z *zipfKeys) next() int { return z.perm[z.z.Uint64()] }

// keyNames are the key strings, built once.
var keyNames = func() []string {
	ks := make([]string, nKeys)
	for i := range ks {
		ks[i] = fmt.Sprintf("key%05d", i)
	}
	return ks
}()

// stamp builds a value carrying its key and a per-stream sequence
// number, padded to valueSize bytes.
func stamp(key, stream string, seq int) string {
	s := fmt.Sprintf("%s|%s|%d|", key, stream, seq)
	if len(s) < valueSize {
		s += strings.Repeat(".", valueSize-len(s))
	}
	return s
}

// stampedFor reports whether v is a value stamped for key.
func stampedFor(v value.Value, key string) bool {
	s, ok := v.(value.Str)
	return ok && len(s) == valueSize && strings.HasPrefix(string(s), key+"|")
}

// write is one put as the caller saw it: sent and acked are stamps on
// the benchmark clock (acked is math.MaxInt64 for a put whose outcome
// is unknown).
type write struct {
	val         string
	sent, acked int64
}

// ledger tracks, per key, the puts that may be the key's last
// committed value: a put acked before another put to the key was sent
// is superseded by it.
type ledger struct {
	mu   sync.Mutex
	cand [][]write
}

func newLedger() *ledger { return &ledger{cand: make([][]write, nKeys)} }

func (l *ledger) record(k int, w write) {
	l.mu.Lock()
	defer l.mu.Unlock()
	keep := l.cand[k][:0]
	superseded := false
	for _, o := range l.cand[k] {
		if o.acked < w.sent {
			continue
		}
		if o.sent > w.acked {
			superseded = true
		}
		keep = append(keep, o)
	}
	if !superseded {
		keep = append(keep, w)
	}
	l.cand[k] = keep
}

// holds reports whether v may be key k's last acknowledged value.
func (l *ledger) holds(k int, v value.Value) bool {
	s, ok := v.(value.Str)
	if !ok {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, w := range l.cand[k] {
		if w.val == string(s) {
			return true
		}
	}
	return false
}

// buildStore creates the store the workload starts from, through the
// guardian API at rosd's default flush policy: every key preloaded,
// then w.history single-put actions over uniformly drawn keys.
func buildStore(dir string, w workload, gn gen) (*ledger, error) {
	vol, err := stablelog.NewFileVolume(dir, dataBlockSize, false)
	if err != nil {
		return nil, fmt.Errorf("set-up volume: %w", err)
	}
	defer vol.Close()
	g, err := guardian.New(guardianID, guardian.WithBackend(core.BackendHybrid), guardian.WithVolume(vol))
	if err != nil {
		return nil, fmt.Errorf("set-up guardian: %w", err)
	}
	registerKV(g, nil)
	led := newLedger()
	// The preload binds each key to a new atomic through the action
	// API: the put handler's per-key SetVar would copy the growing
	// stable-variables record once per key.
	for b := 0; b < nKeys; b += preloadPerAct {
		a := g.Begin()
		for k := b; k < b+preloadPerAct && k < nKeys; k++ {
			o, err := a.NewAtomic(value.Str(stamp(keyNames[k], "p", 0)))
			if err == nil {
				err = a.SetVar(keyNames[k], o)
			}
			if err != nil {
				return nil, fmt.Errorf("set-up preload %s: %w", keyNames[k], err)
			}
		}
		if err := a.Commit(); err != nil {
			return nil, fmt.Errorf("set-up commit: %w", err)
		}
		t := now()
		for k := b; k < b+preloadPerAct && k < nKeys; k++ {
			led.record(k, write{val: stamp(keyNames[k], "p", 0), sent: t, acked: t})
		}
	}
	r := gn.rng("history")
	for i := 0; i < w.history; i++ {
		k := r.Intn(nKeys)
		val := stamp(keyNames[k], "h", i)
		t0 := now()
		a := g.Begin()
		if _, err := guardian.Call(transport.Loopback{}, a, g, "put", value.NewList(value.Str(keyNames[k]), value.Str(val))); err != nil {
			return nil, fmt.Errorf("set-up put %s: %w", keyNames[k], err)
		}
		if err := a.Commit(); err != nil {
			return nil, fmt.Errorf("set-up commit: %w", err)
		}
		led.record(k, write{val: val, sent: t0, acked: now()})
	}
	return led, nil
}
