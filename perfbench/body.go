package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/value"
)

// Recovery intervals, in reopen order (see README.md).
const (
	phRepair  = iota // volume open → open-log phase
	phOpenLog        // open-log → scan
	phScan           // scan → rebuild (the backward scan and materialize)
	phRebuild        // rebuild → resume (index rebuild)
	phResume         // resume → first client Get answered
	nPhases
)

// result is what one body (reopens, then the timed phase) measured.
type result struct {
	writes, reads series
	recoverS      []float64

	puts, batches, keysRead, firstGets int64
	attempted, failed                  int64
	errs                               []string

	// The main region: the timed phase (durable, mixed) or every
	// reopen cycle (restart). CPU, allocation and device bytes are
	// charged over it, per mainOps.
	main      usageDelta
	mainOps   int64
	logGrowth int64
	forces    int64

	idxHits, idxMisses uint64

	reopens     int64
	recIO       procIO // /proc/self/io across the reopens' recovery
	recLogBytes int64  // log size recovered, summed over reopens
	phaseNS     [nPhases]int64
}

func (r *result) fail(err error) {
	r.absorb(opOut{failed: 1, errs: []error{err}})
}

// kindAcct sums the client-side stamps of one op kind: op start, first
// write, last read, op end. Differences of sums give per-layer time
// without pairing requests across goroutines.
type kindAcct struct {
	mu                  sync.Mutex
	ops                 int64
	sumT0, sumFW, sumLR int64
	sumT1               int64
}

func (a *kindAcct) add(t0, fw, lr, t1 int64) {
	a.mu.Lock()
	a.ops++
	a.sumT0 += t0
	a.sumFW += fw
	a.sumLR += lr
	a.sumT1 += t1
	a.mu.Unlock()
}

// meanUS is the mean client-observed op latency.
func (a *kindAcct) meanUS() float64 {
	return ratio(float64(a.sumT1-a.sumT0)/1e3, float64(a.ops))
}

// libUS is the client library's time per op: before the first write
// and after the last read.
func (a *kindAcct) libUS() float64 {
	return ratio(float64((a.sumFW-a.sumT0)+(a.sumT1-a.sumLR))/1e3, float64(a.ops))
}

// serverUS is the server's busy time per client op.
func (a *kindAcct) serverUS(s serverSums) float64 {
	return ratio(float64(s.busyNS)/1e3, float64(a.ops))
}

// wireUS is the rest of the socket-to-socket interval: loopback
// transit and the server's frame reading before dispatch.
func (a *kindAcct) wireUS(s serverSums) float64 {
	return ratio(float64(a.sumLR-a.sumFW-s.busyNS)/1e3, float64(a.ops))
}

// tracing is the instrumentation of a traced body.
type tracing struct {
	sink *sink
	ht   *handlerTimer
	acct [nKinds]*kindAcct

	mu   sync.Mutex
	recs []*connRec
}

func newTracing() *tracing {
	tc := &tracing{sink: newSink(), ht: &handlerTimer{}}
	for i := range tc.acct {
		tc.acct[i] = &kindAcct{}
	}
	return tc
}

// tracer is the obs.Tracer to install: nil for an untraced stack.
func (tc *tracing) tracer() obs.Tracer {
	if tc == nil {
		return nil
	}
	return tc.sink
}

func (tc *tracing) handlers() *handlerTimer {
	if tc == nil {
		return nil
	}
	return tc.ht
}

// caller is one closed-loop client: one goroutine, one connection.
type caller struct {
	c   *client.Client
	rec *connRec
	tc  *tracing
}

func (tc *tracing) caller(n *node) *caller {
	if tc == nil {
		return &caller{c: n.newClient(nil, nil)}
	}
	rec := &connRec{}
	tc.mu.Lock()
	tc.recs = append(tc.recs, rec)
	tc.mu.Unlock()
	return &caller{c: n.newClient(tc.sink, rec), rec: rec, tc: tc}
}

// do times one op of the given kind, returning its start and end
// stamps.
func (cl *caller) do(kind int, op func() error) (int64, int64, error) {
	if cl.rec != nil {
		cl.rec.begin()
	}
	t0 := now()
	err := op()
	t1 := now()
	if cl.rec != nil && err == nil {
		fw, lr := cl.rec.marks()
		cl.tc.acct[kind].add(t0, fw, lr, t1)
	}
	return t0, t1, err
}

var errForeign = errors.New("value not stamped for its key")

// opOut is one caller's tally.
type opOut struct {
	lat         samples
	ends        []int64 // completion stamp of each lat sample
	ops, failed int64
	errs        []error
	start, end  int64
}

// done tallies one op.
func (o *opOut) done(t0, t1 int64, err error) {
	o.ops++
	if err != nil {
		o.failed++
		if len(o.errs) < 3 {
			o.errs = append(o.errs, err)
		}
		return
	}
	o.lat = append(o.lat, t1-t0)
	o.ends = append(o.ends, t1)
}

// plan is one closed-loop caller's op mix: puts to uniformly drawn
// keys from r (nil: none), GetBatch ops of zipfian keys from z (nil:
// none); with both, putsPerRead puts and then one GetBatch.
type plan struct {
	r           *rand.Rand
	stream      string
	z           *zipfKeys
	putsPerRead int
}

// run issues the plan's ops on one connection until more(i) is false,
// i counting ops. Every put is entered in led; every value read must
// carry its own key's stamp.
func (p plan) run(n *node, tc *tracing, led *ledger, more func(int) bool) (puts, gets opOut) {
	cl := tc.caller(n)
	defer cl.c.Close()
	puts.start, gets.start = now(), now()
	keys := make([]string, batchKeys)
	for i := 0; more(i); i++ {
		if p.z != nil && (p.r == nil || i%(p.putsPerRead+1) == p.putsPerRead) {
			for j := range keys {
				keys[j] = keyNames[p.z.next()]
			}
			t0, t1, err := cl.do(kindGet, func() error {
				vals, err := cl.c.GetBatch(keys)
				if err != nil {
					return err
				}
				for j, v := range vals {
					if !stampedFor(v, keys[j]) {
						return fmt.Errorf("get %s: %w: %.40q", keys[j], errForeign, fmt.Sprint(v))
					}
				}
				return nil
			})
			gets.done(t0, t1, err)
			continue
		}
		k := p.r.Intn(nKeys)
		key := keyNames[k]
		val := stamp(key, p.stream, i)
		t0, t1, err := cl.do(kindPut, func() error {
			v, err := cl.c.Invoke("put", value.NewList(value.Str(key), value.Str(val)))
			if err != nil {
				return err
			}
			if s, ok := v.(value.Str); !ok || string(s) != val {
				return fmt.Errorf("put %s: echoed %v", key, v)
			}
			return nil
		})
		if err != nil {
			// The put may or may not have committed.
			led.record(k, write{val: val, sent: t0, acked: math.MaxInt64})
		} else {
			led.record(k, write{val: val, sent: t0, acked: t1})
		}
		puts.done(t0, t1, err)
	}
	puts.end, gets.end = now(), now()
	return puts, gets
}

// reopen restarts the store on dir as rosd does and times it to the
// first client Get answered.
func reopen(dir string, w workload, tc *tracing, firstKey int, res *result) (*node, error) {
	if tc != nil {
		tc.sink.dropConns()
	}
	io0, err := readProcIO()
	if err != nil {
		return nil, err
	}
	t0 := now()
	n, err := openNode(dir, w.datasync, tc.tracer(), tc.handlers())
	if err != nil {
		return nil, err
	}
	io1, err := readProcIO()
	if err != nil {
		n.close()
		return nil, err
	}
	cl := tc.caller(n)
	key := keyNames[firstKey]
	_, t1, err := cl.do(kindGet, func() error {
		v, err := cl.c.Get(key)
		if err == nil && !stampedFor(v, key) {
			err = fmt.Errorf("first get %s: %w", key, errForeign)
		}
		return err
	})
	cl.c.Close()
	res.attempted++
	res.firstGets++
	if err != nil {
		res.fail(err)
	}
	res.recoverS = append(res.recoverS, float64(t1-t0)/1e9)
	res.reopens++
	d := io1.sub(io0)
	res.recIO.rchar += d.rchar
	res.recIO.syscr += d.syscr
	res.recLogBytes += int64(n.logAtOpen)
	if tc != nil {
		at := tc.sink.recovery()
		res.phaseNS[phRepair] += at[obs.PhaseOpenLog] - t0
		res.phaseNS[phOpenLog] += at[obs.PhaseScan] - at[obs.PhaseOpenLog]
		res.phaseNS[phScan] += at[obs.PhaseRebuild] - at[obs.PhaseScan]
		res.phaseNS[phRebuild] += at[obs.PhaseResume] - at[obs.PhaseRebuild]
		res.phaseNS[phResume] += t1 - at[obs.PhaseResume]
	}
	return n, nil
}

// shut closes a node, charging its index counters to res.
func shut(n *node, res *result) error {
	if st, ok := n.g.IndexStats(); ok {
		res.idxHits += st.Hits
		res.idxMisses += st.Misses
	}
	return n.close()
}

// body runs the workload's measured part once on dir: the timed
// reopens and the main phase (durable, mixed), or the reopen cycles
// (restart).
func body(dir string, w workload, gn gen, led *ledger, tc *tracing, seconds float64) (*result, error) {
	res := &result{}
	tag := "u"
	if tc != nil {
		tag = "t"
	}
	first := gn.rng("first-" + tag)
	if w.cycles {
		return res, cycles(dir, w, gn, led, tc, seconds, first, tag, res)
	}
	var n *node
	for i := 0; i < w.reopens; i++ {
		var err error
		if n, err = reopen(dir, w, tc, first.Intn(nKeys), res); err != nil {
			return nil, err
		}
		if i < w.reopens-1 {
			if err := shut(n, res); err != nil {
				return nil, err
			}
		}
	}
	if err := mainPhase(n, w, gn, led, tc, seconds, tag, res); err != nil {
		return nil, err
	}
	return res, shut(n, res)
}

// absorb charges one caller's attempts and failures to res.
func (res *result) absorb(o opOut) {
	res.attempted += o.ops
	res.failed += o.failed
	for _, e := range o.errs {
		if len(res.errs) < 5 {
			res.errs = append(res.errs, "error: "+e.Error())
		}
	}
}

// addWrites charges the puts of a set of callers to res, with their
// measurement windows.
func (res *result) addWrites(outs []opOut, wins series) {
	for _, o := range outs {
		res.absorb(o)
		res.puts += int64(len(o.lat))
		res.mainOps += int64(len(o.lat))
	}
	res.writes = append(res.writes, wins...)
}

// addReads charges the GetBatch ops of a set of callers to res.
func (res *result) addReads(outs []opOut, wins series) {
	for _, o := range outs {
		res.absorb(o)
		res.batches += int64(len(o.lat))
		res.keysRead += int64(len(o.lat)) * batchKeys
		res.mainOps += int64(len(o.lat))
	}
	res.reads = append(res.reads, wins...)
}

// callers runs the workload's writers and readers concurrently, one
// connection each; writers stop when moreW is false, readers when
// moreR is. Streams are named by tag so every run of a body draws its
// own keys.
func callers(n *node, w workload, gn gen, led *ledger, tc *tracing, tag string, moreW, moreR func(int) bool) (puts, gets []opOut) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := func(p plan, more func(int) bool) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			po, go_ := p.run(n, tc, led, more)
			mu.Lock()
			puts = append(puts, po)
			gets = append(gets, go_)
			mu.Unlock()
		}()
	}
	for i := 0; i < w.writers; i++ {
		p := plan{r: gn.rng(fmt.Sprintf("writer%d-%s", i, tag)), stream: fmt.Sprintf("%s%d", tag, i)}
		if w.putsPerRead > 0 {
			p.z, p.putsPerRead = gn.zipf(fmt.Sprintf("writer-reads%d-%s", i, tag)), w.putsPerRead
		}
		start(p, moreW)
	}
	for i := 0; i < w.readers; i++ {
		start(plan{z: gn.zipf(fmt.Sprintf("reader%d-%s", i, tag))}, moreR)
	}
	wg.Wait()
	return puts, gets
}

// mainPhase runs the workload's callers for seconds.
func mainPhase(n *node, w workload, gn gen, led *ledger, tc *tracing, seconds float64, tag string, res *result) error {
	u0, err := snapUsage()
	if err != nil {
		return err
	}
	f0, l0 := n.g.RS().Forces(), n.g.RS().LogBytes()
	deadline := now() + int64(seconds*1e9)
	until := func(int) bool { return now() < deadline }
	puts, gets := callers(n, w, gn, led, tc, tag, until, until)
	u1, err := snapUsage()
	if err != nil {
		return err
	}
	res.main.add(u1.since(u0))
	res.forces += int64(n.g.RS().Forces() - f0)
	res.logGrowth += int64(n.g.RS().LogBytes() - l0)
	winNS := int64(mainWindow * 1e9)
	res.addWrites(puts, byTime(puts, u0.wallNS, u1.wallNS, winNS))
	res.addReads(gets, byTime(gets, u0.wallNS, u1.wallNS, winNS))
	return nil
}

// cycles is the restart workload's timed part: reopen, serve a fixed
// burst of puts and GetBatch ops on the recovered store, close; again
// until seconds have passed and at least minCycles ran. Each cycle is
// one measurement window.
func cycles(dir string, w workload, gn gen, led *ledger, tc *tracing, seconds float64, first *rand.Rand, tag string, res *result) error {
	deadline := now() + int64(seconds*1e9)
	for c := 0; c < w.minCycles || now() < deadline; c++ {
		u0, err := snapUsage()
		if err != nil {
			return err
		}
		n, err := reopen(dir, w, tc, first.Intn(nKeys), res)
		if err != nil {
			return err
		}
		f0, l0 := n.g.RS().Forces(), n.g.RS().LogBytes()
		puts, gets := callers(n, w, gn, led, tc, fmt.Sprintf("%sc%d", tag, c),
			func(i int) bool { return i < w.cyclePuts }, func(i int) bool { return i < w.cycleReads })
		res.forces += int64(n.g.RS().Forces() - f0)
		res.logGrowth += int64(n.g.RS().LogBytes() - l0)
		if err := shut(n, res); err != nil {
			return err
		}
		u1, err := snapUsage()
		if err != nil {
			return err
		}
		res.main.add(u1.since(u0))
		res.addWrites(puts, wholeWindow(puts))
		res.addReads(gets, wholeWindow(gets))
		res.mainOps++ // the reopen
	}
	return nil
}

// gateResult is the correctness gate's tally.
type gateResult struct {
	checked, lost, foreign int64
}

// runGate reopens the store and checks every key holds its last
// acknowledged put: a value stamped for another key is foreign, one
// stamped for the key but not among its possible last puts is lost.
func runGate(dir string, led *ledger) (gateResult, error) {
	var g gateResult
	n, err := openNode(dir, false, nil, nil)
	if err != nil {
		return g, fmt.Errorf("gate: %w", err)
	}
	c := n.newClient(nil, nil)
	defer c.Close()
	for b := 0; b < nKeys; b += batchKeys {
		keys := keyNames[b:min(b+batchKeys, nKeys)]
		vals, err := c.GetBatch(keys)
		if err != nil {
			n.close()
			return g, fmt.Errorf("gate: %w", err)
		}
		for j, v := range vals {
			g.checked++
			switch {
			case !stampedFor(v, keys[j]):
				g.foreign++
			case !led.holds(b+j, v):
				g.lost++
			}
		}
	}
	return g, n.close()
}

// sumLines explains the traced body's decomposition in words.
func (tc *tracing) sumLines() []string {
	s := tc.sink
	s.mu.Lock()
	defer s.mu.Unlock()
	pa, ga := tc.acct[kindPut], tc.acct[kindGet]
	sp, sg := s.srv[kindPut], s.srv[kindGet]
	handler := ratio(float64(tc.ht.ns.Load())/1e3, float64(tc.ht.calls.Load()))
	return []string{
		fmt.Sprintf("traced put: mean %.1f us = client %.1f + wire %.1f + server %.1f (handler %.1f + commit %.1f); %d ops, %d dispatches",
			pa.meanUS(), pa.libUS(), pa.wireUS(sp), pa.serverUS(sp), handler, pa.serverUS(sp)-handler, pa.ops, sp.reqs),
		fmt.Sprintf("traced GetBatch: mean %.1f us = client %.1f + wire %.1f + server %.1f; %d ops, %d dispatches",
			ga.meanUS(), ga.libUS(), ga.wireUS(sg), ga.serverUS(sg), ga.ops, sg.reqs),
	}
}
