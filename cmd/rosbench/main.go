// Command rosbench regenerates the reproduction's experiment tables
// (see DESIGN.md's experiment index and EXPERIMENTS.md): the write-cost
// and recovery-cost comparison of the three stable-storage
// organizations (E1/E2/E3), the early-prepare effect (E4), the
// compaction-vs-snapshot comparison (E5), the effect of housekeeping on
// recovery (E6), the group-commit force-sharing curve (E11), the
// served-guardian throughput scaling curve over loopback TCP (E12), the
// replication cost and failover-time comparison (E13), the sharded
// keyspace's disjoint-key scaling curve plus cross-shard two-phase
// commit overhead (E14), and the read-path comparison of the
// live-version index against the action-path baseline, with and
// without pipelined wire batching and under a mixed read/write load at
// zipfian key skew (E16).
//
// E11–E16 report every measurement as one row type. Each row's forces,
// log bytes and index hits come from the storage counters, cross-checked
// against the guardians' event streams, and each row passes checkRow's
// machine-independent check before anything is written. -json writes
// the rows of every experiment that ran as one JSON array.
//
// Usage:
//
//	rosbench [-experiment all|e1|e2|e3|e4|e5|e6|e11|e12|e13|e14|e16] [-quick]
//	         [-json FILE]
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/guardian"
	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/object"
	"repro/internal/obs"
	"repro/internal/replog"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/stablelog"
	"repro/internal/twopc"
	"repro/internal/value"
)

var (
	experiment = flag.String("experiment", "all", "which experiment to run: all, e1..e6, e11, e12, e13, e14, e16")
	quick      = flag.Bool("quick", false, "smaller workloads for a fast smoke run")
	jsonOut    = flag.String("json", "", "write the E11–E16 rows of the experiments that ran to this file as JSON")
)

func main() {
	flag.Parse()
	run := func(name string, fn func()) {
		if *experiment == "all" || *experiment == name {
			fn()
		}
	}
	rows := []row{}
	measure := func(name string, fn func() []row) {
		run(name, func() {
			for _, r := range fn() {
				die(checkRow(r))
				rows = append(rows, r)
			}
		})
	}
	run("e1", e1WriteCost)
	run("e2", e2RecoveryCost)
	run("e3", e3ScanCost)
	run("e4", e4EarlyPrepare)
	run("e5", e5Housekeeping)
	run("e6", e6RecoveryAfterHousekeeping)
	measure("e11", e11GroupCommit)
	measure("e12", e12ServerThroughput)
	measure("e13", e13Replication)
	measure("e14", e14ShardScaling)
	measure("e16", e16ReadPath)
	if *jsonOut != "" {
		out, err := json.MarshalIndent(rows, "", "  ")
		die(err)
		die(os.WriteFile(*jsonOut, append(out, '\n'), 0o644))
		fmt.Printf("wrote %s (%d rows)\n", *jsonOut, len(rows))
	}
}

func backends() []core.Backend {
	return []core.Backend{core.BackendSimple, core.BackendHybrid, core.BackendShadow}
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "rosbench:", err)
		os.Exit(1)
	}
}

// inc is the counter update every commit workload applies.
func inc(v value.Value) value.Value { return value.Int(int64(v.(value.Int)) + 1) }

func e1WriteCost() {
	fmt.Println("E1 — write cost per committed action (§1.2.2: shadowing pays the map rewrite)")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "organization\tlive objects\tobjs/commit\tcommit µs\tlog bytes/commit")
	iters := 300
	sizes := []int{64, 512}
	if *quick {
		iters = 60
		sizes = []int{32, 128}
	}
	for _, b := range backends() {
		for _, objs := range sizes {
			for _, batch := range []int{1, 8} {
				g := commitHistory(b, objs, 0, 0)
				startBytes := g.RS().LogBytes()
				start := time.Now()
				for i := 0; i < iters; i++ {
					act := g.Begin()
					for j := 0; j < batch; j++ {
						o, _ := g.VarAtomic(fmt.Sprintf("c%d", (i+j)%objs))
						die(act.Update(o, inc))
					}
					die(act.Commit())
				}
				el := time.Since(start)
				perCommit := float64(g.RS().LogBytes()-startBytes) / float64(iters)
				fmt.Fprintf(w, "%v\t%d\t%d\t%.1f\t%.0f\n",
					b, objs, batch, float64(el.Microseconds())/float64(iters), perCommit)
			}
		}
	}
	w.Flush()
	fmt.Println()
}

func e2RecoveryCost() {
	fmt.Println("E2 — recovery cost by organization (µs and entries read)")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "organization\thistory\trecovery µs\tentries read")
	histories := []int{100, 1000}
	if *quick {
		histories = []int{50, 200}
	}
	for _, b := range backends() {
		for _, h := range histories {
			g := commitHistory(b, 32, h, 2)
			g.Crash()
			start := time.Now()
			rec, err := guardian.RecoverStats(g)
			die(err)
			el := time.Since(start)
			fmt.Fprintf(w, "%v\t%d\t%.0f\t%d\n", b, h, float64(el.Microseconds()), rec.EntriesRead)
		}
	}
	w.Flush()
	fmt.Println()
}

// commitHistory builds a guardian with counters c0..c<counters-1>
// committed at 0, then commits history actions each incrementing batch
// of them.
func commitHistory(b core.Backend, counters, history, batch int) *guardian.Guardian {
	g, err := guardian.New(1, guardian.WithBackend(b))
	die(err)
	a := g.Begin()
	objs := make([]*object.Atomic, counters)
	for i := range objs {
		o, err := a.NewAtomic(value.Int(0))
		die(err)
		die(a.SetVar(fmt.Sprintf("c%d", i), o))
		objs[i] = o
	}
	die(a.Commit())
	for i := 0; i < history; i++ {
		act := g.Begin()
		for j := 0; j < batch; j++ {
			die(act.Update(objs[(i+j)%counters], inc))
		}
		die(act.Commit())
	}
	return g
}

func e3ScanCost() {
	fmt.Println("E3 — entries examined during recovery (hybrid reads the outcome chain only)")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "organization\tdata:outcome\tentries read")
	history := 200
	if *quick {
		history = 60
	}
	for _, b := range backends() {
		for _, batch := range []int{1, 16} {
			g := commitHistory(b, 32, history, batch)
			g.Crash()
			rec, err := guardian.RecoverStats(g)
			die(err)
			fmt.Fprintf(w, "%v\t%d:4\t%d\n", b, batch, rec.EntriesRead)
		}
	}
	w.Flush()
	fmt.Println()
}

func e4EarlyPrepare() {
	fmt.Println("E4 — prepare-phase latency with and without early prepare (§4.4)")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "mode\tobjects\tprepare µs (median of runs)")
	iters := 200
	if *quick {
		iters = 50
	}
	for _, early := range []bool{false, true} {
		for _, k := range []int{4, 32} {
			g := commitHistory(core.BackendHybrid, k, 0, 0)
			var total time.Duration
			for i := 0; i < iters; i++ {
				a := g.Begin()
				for j := 0; j < k; j++ {
					o, _ := g.VarAtomic(fmt.Sprintf("c%d", j))
					die(a.Update(o, inc))
				}
				if early {
					die(a.EarlyPrepare())
				}
				start := time.Now()
				_, err := g.HandlePrepare(a.ID())
				die(err)
				total += time.Since(start)
				die(g.HandleCommit(a.ID()))
			}
			mode := "cold"
			if early {
				mode = "early"
			}
			fmt.Fprintf(w, "%s\t%d\t%.1f\n", mode, k, float64(total.Microseconds())/float64(iters))
		}
	}
	w.Flush()
	fmt.Println()
}

func e5Housekeeping() {
	fmt.Println("E5 — compaction vs snapshot as garbage grows (§5.3)")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "algorithm\tlive\tdead ratio\tµs\told entries read\tobjects copied")
	ratios := []int{2, 16, 64}
	if *quick {
		ratios = []int{2, 8}
	}
	for _, kind := range []core.HousekeepKind{core.HousekeepCompact, core.HousekeepSnapshot} {
		name := "compaction"
		if kind == core.HousekeepSnapshot {
			name = "snapshot"
		}
		for _, ratio := range ratios {
			const live = 32
			g := commitHistory(core.BackendHybrid, live, live*ratio/2, 2)
			start := time.Now()
			stats, err := g.Housekeep(kind)
			die(err)
			el := time.Since(start)
			fmt.Fprintf(w, "%s\t%d\t%dx\t%.0f\t%d\t%d\n",
				name, live, ratio, float64(el.Microseconds()), stats.OldEntriesRead, stats.ObjectsCopied)
		}
	}
	w.Flush()
	fmt.Println()
}

func e6RecoveryAfterHousekeeping() {
	fmt.Println("E6 — recovery before vs after housekeeping bounds recovery cost (ch. 5)")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "state\trecovery µs\tentries read")
	history := 500
	if *quick {
		history = 100
	}
	for _, housekept := range []bool{false, true} {
		g := commitHistory(core.BackendHybrid, 32, history, 2)
		label := "before"
		if housekept {
			label = "after"
			_, err := g.Housekeep(core.HousekeepSnapshot)
			die(err)
		}
		g.Crash()
		start := time.Now()
		rec, err := guardian.RecoverStats(g)
		die(err)
		el := time.Since(start)
		fmt.Fprintf(w, "%s\t%.0f\t%d\n", label, float64(el.Microseconds()), rec.EntriesRead)
	}
	w.Flush()
	fmt.Println()
}

// row is one E11–E16 measurement, the one shape of every -json file.
// Experiment and mode name the configuration and the parameters
// describe it. An omitempty field is absent when zero: a parameter the
// experiment does not vary, or a column it did not measure (the
// committed E13 rows predate its forces and bytes columns). Ops counts
// the measured operations (commits, or reads for E16) and every per-op
// column divides by it. Forces and log bytes are summed over the
// metered guardians — for E16's mixed rows that includes the writers'
// commits, for E13 only the primary's.
type row struct {
	Experiment string `json:"experiment"`
	Mode       string `json:"mode"`
	Clients    int    `json:"clients"`
	Shards     int    `json:"shards,omitempty"`
	Span       int    `json:"span,omitempty"`
	Replicas   int    `json:"replicas,omitempty"`
	Quorum     int    `json:"quorum,omitempty"`
	Batch      int    `json:"batch,omitempty"`

	Ops         int     `json:"ops"`
	Seconds     float64 `json:"seconds"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	P50Us       float64 `json:"p50_us,omitempty"`
	P99Us       float64 `json:"p99_us,omitempty"`
	ForcesPerOp float64 `json:"forces_per_op,omitempty"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	// Speedup is ops/s against the experiment's baseline row.
	Speedup   float64 `json:"speedup,omitempty"`
	IdxHits   uint64  `json:"idx_hits,omitempty"`
	IdxMisses uint64  `json:"idx_misses,omitempty"`
	// FailoverUs (E13) is the time to bring a recovered guardian back
	// up after the history: a crash-restart on the single device, a
	// backup promotion (takeover recovery included) when replicated.
	FailoverUs float64 `json:"failover_us,omitempty"`
}

// usPerOp is the mean wall time of one op.
func (r row) usPerOp() float64 { return r.Seconds * 1e6 / float64(r.Ops) }

// checkRow is the machine-independent check every row passes before it
// is written: the force counts the thesis's cost model fixes, the
// index's memory-speed guarantee, and the speedup baselines. No
// wall-clock column is checked.
func checkRow(r row) error {
	at := fmt.Sprintf("%s %s/%d", r.Experiment, r.Mode, r.Clients)
	switch {
	case (r.Experiment == "e11" || r.Experiment == "e12") && r.Clients == 1 && r.ForcesPerOp != 4:
		return fmt.Errorf("%s: serial single-guardian commit cost %v forces, want 4", at, r.ForcesPerOp)
	case r.Experiment == "e14" && r.Mode == "cross-shard" && r.ForcesPerOp != float64(2*r.Span+2):
		return fmt.Errorf("%s: span-%d commit cost %v forces, want %d", at, r.Span, r.ForcesPerOp, 2*r.Span+2)
	case r.Experiment == "e16" && strings.Contains(r.Mode, "idx") && (r.IdxHits != uint64(r.Ops) || r.IdxMisses != 0):
		return fmt.Errorf("%s: %d ops but %d index hits / %d misses — the hot path fell back", at, r.Ops, r.IdxHits, r.IdxMisses)
	case r.Experiment == "e16" && strings.HasPrefix(r.Mode, "get-idx") && r.ForcesPerOp != 0:
		return fmt.Errorf("%s: %v log forces/op during a pure-read index phase", at, r.ForcesPerOp)
	case baseline(r) && r.Speedup != 1:
		return fmt.Errorf("%s: baseline row has speedup %v, want 1", at, r.Speedup)
	}
	return nil
}

// baseline reports whether r is the row its experiment's speedups are
// measured against.
func baseline(r row) bool {
	switch r.Experiment {
	case "e12":
		return r.Clients == 1
	case "e14":
		return r.Mode == "disjoint" && r.Shards == 1
	case "e16":
		return strings.HasSuffix(r.Mode, "-invoke")
	}
	return false
}

// tally is what a meter counts over a phase, summed over its guardians.
type tally struct{ forces, bytes, hits, misses uint64 }

// meter measures a phase on a set of guardians. Each guardian gets an
// obs.Stats tracer, and read cross-checks the storage and index
// counters against the event stream: a divergence means a layer emits
// events it doesn't count (or vice versa), and then neither number can
// be trusted.
type meter struct {
	gs   []*guardian.Guardian
	sts  []*obs.Stats
	base tally
}

func newMeter(gs ...*guardian.Guardian) *meter {
	m := &meter{gs: gs}
	for _, g := range gs {
		st := new(obs.Stats)
		g.SetTracer(st)
		m.sts = append(m.sts, st)
	}
	m.base = m.counters()
	return m
}

func (m *meter) counters() (t tally) {
	for _, g := range m.gs {
		t.forces += uint64(g.RS().Forces())
		t.bytes += g.RS().LogBytes()
		if idx, ok := g.IndexStats(); ok {
			t.hits += idx.Hits
			t.misses += idx.Misses
		}
	}
	return t
}

// read returns the counter deltas since newMeter, stopping the run if
// the event stream disagrees.
func (m *meter) read(what string) tally {
	now := m.counters()
	d := tally{now.forces - m.base.forces, now.bytes - m.base.bytes, now.hits - m.base.hits, now.misses - m.base.misses}
	var tr tally
	for _, st := range m.sts {
		tr.forces += st.Count(obs.KindForceDone)
		tr.bytes += st.AppendedBytes()
		tr.hits += st.Count(obs.KindIdxHit)
		tr.misses += st.Count(obs.KindIdxMiss)
	}
	if tr != d {
		die(fmt.Errorf("%s: trace disagrees with counters: trace %+v, counters %+v", what, tr, d))
	}
	return d
}

// drive runs workers goroutines, each making perWorker calls of the op
// that open builds for it (closing what open returns afterwards), and
// returns the wall time of the whole phase and every call's latency,
// sorted. Any call's error stops the run.
func drive(workers, perWorker int, open func(w int) (op func(i int) error, c io.Closer)) (time.Duration, []time.Duration) {
	lats := make([][]time.Duration, workers)
	errs := make([]error, workers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			op, c := open(w)
			if c != nil {
				defer c.Close()
			}
			lats[w] = make([]time.Duration, 0, perWorker)
			for i := 0; i < perWorker; i++ {
				t0 := time.Now()
				if err := op(i); err != nil {
					errs[w] = err
					return
				}
				lats[w] = append(lats[w], time.Since(t0))
			}
		}(w)
	}
	wg.Wait()
	el := time.Since(start)
	var all []time.Duration
	for w, err := range errs {
		die(err)
		all = append(all, lats[w]...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return el, all
}

// finish fills r's measured columns from a phase of r.Ops ops: its wall
// time, its sorted per-op latencies and its meter reading.
func finish(r row, el time.Duration, lats []time.Duration, t tally) row {
	r.Seconds = el.Seconds()
	r.OpsPerSec = float64(r.Ops) / el.Seconds()
	r.P50Us = float64(lats[len(lats)/2].Microseconds())
	r.P99Us = float64(lats[len(lats)*99/100].Microseconds())
	r.ForcesPerOp = float64(t.forces) / float64(r.Ops)
	r.BytesPerOp = float64(t.bytes) / float64(r.Ops)
	r.IdxHits, r.IdxMisses = t.hits, t.misses
	return r
}

// serve runs a server over g on a fresh loopback listener and returns
// its address and a stop func that drains it. setup, if set, runs
// before the first accept, with the address the server will answer on.
func serve(g *guardian.Guardian, cfg server.Config, setup func(s *server.Server, addr string)) (string, func()) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	die(err)
	s := server.New(g, cfg)
	addr := ln.Addr().String()
	if setup != nil {
		setup(s, addr)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	return addr, func() {
		die(s.Close())
		if err := <-done; !errors.Is(err, server.ErrClosed) {
			die(err)
		}
	}
}

// bump commits one top-level action incrementing counter o.
func bump(g *guardian.Guardian, o *object.Atomic) error {
	a := g.Begin()
	if err := a.Update(o, inc); err != nil {
		return err
	}
	return a.Commit()
}

// counter returns g's counter ci.
func counter(g *guardian.Guardian, i int) *object.Atomic {
	o, ok := g.VarAtomic(fmt.Sprintf("c%d", i))
	if !ok {
		die(fmt.Errorf("counter c%d missing", i))
	}
	return o
}

// wantCounters stops the run unless g's counters c0..c<n-1> each hold
// want in the committed state: every acked increment survived.
func wantCounters(what string, g *guardian.Guardian, n, want int) {
	for i := 0; i < n; i++ {
		if got := int(counter(g, i).Base().(value.Int)); got != want {
			die(fmt.Errorf("%s: counter c%d = %d, want %d", what, i, got, want))
		}
	}
}

// e11WriteDelay mirrors the bench_test.go constant: the simulated
// per-block device latency that makes a force expensive enough for
// concurrent committers to overlap inside one.
const e11WriteDelay = 50 * time.Microsecond

func e11GroupCommit() []row {
	fmt.Println("E11 — group commit: forces shared across concurrent committers (§1.2, §4.1)")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "organization\tgoroutines\tcommits/s\tforces/commit\tlog bytes/commit")
	perWorker := 25
	workerCounts := []int{1, 2, 4, 8, 16}
	if *quick {
		perWorker = 8
		workerCounts = []int{1, 4, 8}
	}
	var rows []row
	for _, b := range []core.Backend{core.BackendSimple, core.BackendHybrid} {
		for _, workers := range workerCounts {
			r := e11Run(b, workers, perWorker)
			rows = append(rows, r)
			fmt.Fprintf(w, "%v\t%d\t%.0f\t%.3f\t%.0f\n", b, workers, r.OpsPerSec, r.ForcesPerOp, r.BytesPerOp)
		}
	}
	w.Flush()
	fmt.Println()
	return rows
}

// e11Run measures one point of the group-commit curve: workers
// goroutines committing perWorker increments each, one counter apiece
// (so actions never conflict).
func e11Run(b core.Backend, workers, perWorker int) row {
	g := commitHistory(b, workers, 0, 0)
	g.Volume().SetWriteDelay(e11WriteDelay)
	m := newMeter(g)
	el, lats := drive(workers, perWorker, func(w int) (func(int) error, io.Closer) {
		o := counter(g, w)
		return func(int) error { return bump(g, o) }, nil
	})
	r := row{Experiment: "e11", Mode: b.String(), Clients: workers, Ops: workers * perWorker}
	return finish(r, el, lats, m.read(fmt.Sprintf("e11 %v/%d", b, workers)))
}

// e12WriteDelay is the simulated device latency behind the served
// guardian's log. It is deliberately larger than e11's: every E12
// commit also pays a wire round trip, so the force has to dominate for
// the group-commit effect to be the thing measured.
const e12WriteDelay = 200 * time.Microsecond

// e12ServerThroughput measures a real rosd-style server over loopback
// TCP: N concurrent clients each driving complete atomic increments of
// their own counter. Throughput should scale superlinearly past the
// single-client line because concurrent committers share log forces
// (E11's effect, now visible through the serving layer).
func e12ServerThroughput() []row {
	fmt.Println("E12 — served-guardian throughput over loopback TCP (group commit on)")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "clients\tcommits\tcommits/s\tp50 µs\tp99 µs\tforces/commit\tspeedup")
	perClient := 300
	clientCounts := []int{1, 2, 4, 8, 16}
	if *quick {
		perClient = 40
		clientCounts = []int{1, 4}
	}
	var rows []row
	for _, clients := range clientCounts {
		r := e12Run(clients, perClient)
		r.Speedup = 1
		if len(rows) > 0 {
			r.Speedup = r.OpsPerSec / rows[0].OpsPerSec
		}
		rows = append(rows, r)
		fmt.Fprintf(w, "%d\t%d\t%.0f\t%.0f\t%.0f\t%.3f\t%.2fx\n",
			r.Clients, r.Ops, r.OpsPerSec, r.P50Us, r.P99Us, r.ForcesPerOp, r.Speedup)
	}
	w.Flush()
	fmt.Println()
	return rows
}

// e12Run measures one point on the curve: a fresh hybrid guardian
// served over a fresh loopback listener, `clients` concurrent clients,
// one counter each (so actions never conflict and every commit is a
// separate top-level action).
func e12Run(clients, perClient int) row {
	g := commitHistory(core.BackendHybrid, clients, 0, 0)
	server.RegisterKV(g)
	g.Volume().SetWriteDelay(e12WriteDelay)
	addr, stop := serve(g, server.Config{Workers: 2 * clients, MaxConns: 2 * clients}, nil)
	m := newMeter(g)
	el, lats := drive(clients, perClient, func(w int) (func(int) error, io.Closer) {
		c := client.New(addr, client.Options{PoolSize: 1})
		key := value.Str(fmt.Sprintf("c%d", w))
		return func(int) error { _, err := c.Invoke("incr", key); return err }, c
	})
	what := fmt.Sprintf("e12 %d clients", clients)
	t := m.read(what)
	wantCounters(what, g, clients, perClient)
	stop()
	return finish(row{Experiment: "e12", Mode: "served", Clients: clients, Ops: clients * perClient}, el, lats, t)
}

// e13WriteDelay is the simulated per-block device latency for E13; the
// same delay applies to the primary's device and every backup's, so the
// replicated rows pay the honest cost of the extra durable copies.
const e13WriteDelay = 50 * time.Microsecond

// e13Replication compares commit latency and failover time across
// replication modes: a single device (failover = crash-restart
// recovery), a 2-of-3 quorum (the commit waits for the faster backup),
// and a 3-of-3 all-ack round. Replication runs over the in-process
// deterministic transport — the wire costs are E12's subject; here the
// device and round structure are what's measured.
func e13Replication() []row {
	fmt.Println("E13 — replicated forces: commit cost and failover time vs a single device")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "mode\treplicas\tquorum\tcommits/s\tµs/commit\tfailover µs")
	commits := 300
	if *quick {
		commits = 60
	}
	rows := []row{
		e13Run("single-device", 0, 0, commits),
		e13Run("replicated", 2, 2, commits),
		e13Run("replicated-all", 2, 3, commits),
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%d\t%.0f\t%.1f\t%.0f\n",
			r.Mode, r.Replicas, r.Quorum, r.OpsPerSec, r.usPerOp(), r.FailoverUs)
	}
	w.Flush()
	fmt.Println()
	return rows
}

// e13Run measures one replication mode: a serial commit loop on one
// counter, then the mode's failover path, verifying the recovered
// counter saw every commit.
func e13Run(mode string, replicas, quorumN, commits int) row {
	g := commitHistory(core.BackendHybrid, 1, 0, 0)
	g.Volume().SetWriteDelay(e13WriteDelay)
	var bks []*replog.Backup
	if replicas > 0 {
		reps := make([]replog.Replica, 0, replicas)
		for i := 0; i < replicas; i++ {
			bvol := stablelog.NewMemVolume(512)
			bvol.SetWriteDelay(e13WriteDelay)
			b, err := replog.NewBackup(replog.BackupConfig{
				ID: ids.GuardianID(101 + i), Primary: 1, Backend: core.BackendHybrid, Volume: bvol,
			})
			die(err)
			bks = append(bks, b)
			reps = append(reps, b)
		}
		p, err := replog.NewPrimary(replog.Config{
			Self: 1, Site: g.Site(), Quorum: quorumN, Net: netsim.New(), Replicas: reps,
		})
		die(err)
		g.SetReplicator(p)
	}

	o := counter(g, 0)
	m := newMeter(g)
	el, lats := drive(1, commits, func(int) (func(int) error, io.Closer) {
		return func(int) error { return bump(g, o) }, nil
	})
	what := "e13 " + mode
	t := m.read(what)

	foStart := time.Now()
	var ng *guardian.Guardian
	var err error
	if replicas > 0 {
		ng, err = bks[0].Promote()
	} else {
		g.Crash()
		ng, err = guardian.Restart(g)
	}
	die(err)
	fo := time.Since(foStart)
	wantCounters(what+" after failover", ng, 1, commits)
	r := row{Experiment: "e13", Mode: mode, Clients: 1, Replicas: replicas, Quorum: quorumN, Ops: commits}
	r = finish(r, el, lats, t)
	r.FailoverUs = float64(fo.Microseconds())
	return r
}

// e14WriteDelay is the simulated per-block device latency behind every
// shard guardian's log; with e14ValueBytes-sized values each commit
// keeps its shard's device busy for hundreds of microseconds, so
// throughput is device-bound and adding shards adds devices.
const e14WriteDelay = 50 * time.Microsecond

// e14ValueBytes is the payload size of the disjoint-key workload.
const e14ValueBytes = 4096

// e14ShardScaling measures the sharded deployment: disjoint-key commit
// throughput as the shard count grows (each shard is an independent
// guardian with its own device — the LogBase-style near-linear curve),
// then the cross-shard 2PC overhead as one action spans more shards.
// Disjoint rows vary the shard count; cross-shard rows hold the cluster
// at the largest shard count and vary how many shards one action spans.
func e14ShardScaling() []row {
	fmt.Println("E14 — sharded keyspace: disjoint-key scaling and cross-shard 2PC overhead")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "mode\tshards\tspan\tclients\tcommits/s\tµs/commit\tforces/commit\tspeedup")
	perClient := 40
	crossTxns := 60
	if *quick {
		perClient = 8
		crossTxns = 12
	}
	var rows []row
	shardCounts := []int{1, 2, 4}
	for _, s := range shardCounts {
		r := e14Disjoint(s, perClient)
		r.Speedup = 1
		if len(rows) > 0 {
			r.Speedup = r.OpsPerSec / rows[0].OpsPerSec
		}
		rows = append(rows, r)
	}
	maxShards := shardCounts[len(shardCounts)-1]
	for _, span := range []int{1, 2, 4} {
		rows = append(rows, e14Cross(maxShards, span, crossTxns))
	}
	for _, r := range rows {
		speedup := ""
		if r.Speedup != 0 {
			speedup = fmt.Sprintf("%.2fx", r.Speedup)
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%.0f\t%.0f\t%.3f\t%s\n",
			r.Mode, r.Shards, r.Span, r.Clients, r.OpsPerSec, r.usPerOp(), r.ForcesPerOp, speedup)
	}
	w.Flush()
	if last := rows[len(shardCounts)-1]; last.Speedup < 3 {
		fmt.Printf("WARNING: %d-shard disjoint speedup %.2fx below the 3x acceptance line\n",
			last.Shards, last.Speedup)
	}
	fmt.Println()
	return rows
}

// e14Cluster is one server hosting n shard guardians over loopback
// TCP, each guardian on its own delayed device.
type e14Cluster struct {
	addr  string
	stop  func()
	gs    []*guardian.Guardian
	table shard.Table
}

func e14Start(shards int) *e14Cluster {
	cl := &e14Cluster{table: shard.Table{Version: 1, Kind: shard.KindHash}}
	cfg := server.Config{Workers: 4 * shards, MaxConns: 8 * shards}
	cl.addr, cl.stop = serve(nil, cfg, func(s *server.Server, addr string) {
		for i := 1; i <= shards; i++ {
			g, err := guardian.New(ids.GuardianID(i), guardian.WithBackend(core.BackendHybrid))
			die(err)
			server.RegisterKV(g)
			g.Volume().SetWriteDelay(e14WriteDelay)
			s.AddShard(uint32(i), g)
			cl.gs = append(cl.gs, g)
			cl.table.Shards = append(cl.table.Shards, shard.Shard{ID: shard.ID(i), Addr: addr})
		}
		die(s.InstallTable(cl.table))
	})
	return cl
}

// keysFor finds perShard keys owned by each shard under the cluster's
// hash table (the table ignores addresses, so ownership is stable).
func (cl *e14Cluster) keysFor(perShard int) map[shard.ID][]string {
	need := len(cl.table.Shards) * perShard
	out := make(map[shard.ID][]string, len(cl.table.Shards))
	for i, total := 0, 0; total < need; i++ {
		k := fmt.Sprintf("key%06d", i)
		id := cl.table.Owner(k).ID
		if len(out[id]) < perShard {
			out[id] = append(out[id], k)
			total++
		}
	}
	return out
}

// e14Disjoint measures one point of the scaling curve: two routed
// clients per shard, each repeatedly storing an e14ValueBytes payload
// under a key its shard owns — every commit a complete single-shard
// atomic action, shards never contending for a device.
func e14Disjoint(shards, perClient int) row {
	const clientsPerShard = 2
	cl := e14Start(shards)
	keys := cl.keysFor(clientsPerShard)
	payload := value.Str(make([]byte, e14ValueBytes))
	clients := shards * clientsPerShard
	m := newMeter(cl.gs...)
	el, lats := drive(clients, perClient, func(w int) (func(int) error, io.Closer) {
		key := keys[cl.table.Shards[w/clientsPerShard].ID][w%clientsPerShard]
		arg := value.NewList(value.Str(key), payload)
		r := client.NewRouted([]string{cl.addr}, client.Options{PoolSize: 1})
		return func(int) error { _, err := r.Invoke(key, "put", arg); return err }, r
	})
	t := m.read(fmt.Sprintf("e14 %d shards", shards))
	cl.stop()
	r := row{Experiment: "e14", Mode: "disjoint", Clients: clients, Shards: shards, Span: 1, Ops: clients * perClient}
	return finish(r, el, lats, t)
}

// e14Cross measures the cross-shard overhead curve: serial atomic
// actions each spanning `span` distinct shards (span 1 uses the same
// client-driven 2PC machinery, so the added legs are the only
// variable). The starting shard rotates so every guardian takes turns
// coordinating.
func e14Cross(shards, span, txns int) row {
	cl := e14Start(shards)
	keys := cl.keysFor(1)
	m := newMeter(cl.gs...)
	el, lats := drive(1, txns, func(int) (func(int) error, io.Closer) {
		r := client.NewRouted([]string{cl.addr}, client.Options{PoolSize: 2})
		return func(i int) error {
			legs := make([]string, 0, span)
			for j := 0; j < span; j++ {
				legs = append(legs, keys[cl.table.Shards[(i+j)%shards].ID][0])
			}
			t, err := r.Begin(legs[0])
			if err != nil {
				return err
			}
			for _, k := range legs {
				if _, err := t.Invoke(k, "incr", value.NewList(value.Str(k), value.Int(1))); err != nil {
					return err
				}
			}
			res, err := t.Commit()
			if err == nil && res.Outcome != twopc.OutcomeCommitted {
				err = fmt.Errorf("e14 span %d txn %d: outcome %v", span, i, res.Outcome)
			}
			return err
		}, r
	})
	t := m.read(fmt.Sprintf("e14 span %d", span))
	cl.stop()
	r := row{Experiment: "e14", Mode: "cross-shard", Clients: 1, Shards: shards, Span: span, Ops: txns}
	return finish(r, el, lats, t)
}

const (
	// e16WriteDelay matches e12: the simulated device latency writers
	// pay per forced block, which is what the action-path reader gets
	// stuck behind under write contention.
	e16WriteDelay = 200 * time.Microsecond
	e16Keys       = 64
	e16PayloadLen = 256
	// e16ZipfS skews the key choice so readers and writers pile onto
	// the same hot keys — the regime where lock-free index reads and
	// lock-taking action reads diverge.
	e16ZipfS = 1.2
)

func e16Key(i uint64) string { return fmt.Sprintf("k%03d", i) }

// e16Guardian builds a hybrid guardian with e16Keys payload-bearing
// keys committed, the key/value handlers registered, and the delayed
// device installed.
func e16Guardian() *guardian.Guardian {
	g, err := guardian.New(1, guardian.WithBackend(core.BackendHybrid))
	die(err)
	server.RegisterKV(g)
	a := g.Begin()
	payload := value.Str(make([]byte, e16PayloadLen))
	for i := uint64(0); i < e16Keys; i++ {
		o, err := a.NewAtomic(payload)
		die(err)
		die(a.SetVar(e16Key(i), o))
	}
	die(a.Commit())
	g.Volume().SetWriteDelay(e16WriteDelay)
	return g
}

// e16ReadPath compares the read paths at a fixed client count: the
// action path (an invoked read-only "get" action — the baseline every
// read paid before the index), the index-served OpGet path, the same
// path with pipelined batches sharing one connection, and both paths
// again under a mixed load where a quarter of the clients write to the
// same zipfian-hot keys the readers read.
func e16ReadPath() []row {
	fmt.Println("E16 — memory-speed reads: live-version index vs the action path (zipfian keys)")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "mode\tclients\tbatch\tops/s\tp50 µs\tp99 µs\tidx hits\tidx misses\tforces\tspeedup")
	const clients = 16
	perClient := 400
	if *quick {
		perClient = 48
	}
	rows := []row{
		e16Run("get-invoke", clients, perClient, 1, 0),
		e16Run("get-idx", clients, perClient, 1, 0),
		e16Run("get-idx-batch", clients, perClient, 16, 0),
		e16Run("mixed-invoke", clients, perClient, 1, 4),
		e16Run("mixed-idx", clients, perClient, 1, 4),
	}
	// Speedups are against the like-for-like baseline: pure-read rows
	// against the action path, mixed rows against the mixed action
	// path.
	for i, base := range []int{0, 0, 0, 3, 3} {
		rows[i].Speedup = rows[i].OpsPerSec / rows[base].OpsPerSec
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%d\t%.0f\t%.0f\t%.0f\t%d\t%d\t%.0f\t%.2fx\n",
			r.Mode, r.Clients, r.Batch, r.OpsPerSec, r.P50Us, r.P99Us,
			r.IdxHits, r.IdxMisses, r.ForcesPerOp*float64(r.Ops), r.Speedup)
	}
	w.Flush()
	fmt.Println()
	return rows
}

// e16Run measures one row: a fresh served guardian, `clients` total
// connections of which `writers` continuously put payloads to zipfian
// keys and the rest issue perClient reads each through the mode's
// path. Readers' client-observed latencies are what the percentiles
// summarize; batched rows amortize the batch round trip over its ops.
func e16Run(mode string, clients, perClient, batch, writers int) row {
	g := e16Guardian()
	addr, stop := serve(g, server.Config{Workers: 2 * clients, MaxConns: 2*clients + 4}, nil)
	m := newMeter(g)
	zipf := func(seed int64) func() string {
		z := rand.NewZipf(rand.New(rand.NewSource(seed)), e16ZipfS, 1, e16Keys-1)
		return func() string { return e16Key(z.Uint64()) }
	}

	// Writers run until the readers finish; their puts commit through
	// the delayed device holding hot keys' write locks across forces.
	// Busy refusals under skew are part of the load, not a failure.
	var halt atomic.Bool
	var wwg sync.WaitGroup
	werrs := make([]error, writers)
	for id := 0; id < writers; id++ {
		wwg.Add(1)
		go func(id int) {
			defer wwg.Done()
			c := client.New(addr, client.Options{PoolSize: 1})
			//roslint:besteffort teardown of a load-generator client
			defer c.Close()
			key := zipf(int64(500 + id))
			payload := value.Str(make([]byte, e16PayloadLen))
			for !halt.Load() {
				if _, err := c.Invoke("put", value.NewList(value.Str(key()), payload)); err != nil && !errors.Is(err, client.ErrBusy) {
					werrs[id] = err
					return
				}
			}
		}(id)
	}

	readers := clients - writers
	el, lats := drive(readers, perClient/batch, func(w int) (func(int) error, io.Closer) {
		c := client.New(addr, client.Options{PoolSize: 1})
		key := zipf(int64(1 + w))
		switch {
		case batch > 1:
			return func(int) error {
				keys := make([]string, batch)
				for j := range keys {
					keys[j] = key()
				}
				_, err := c.GetBatch(keys)
				return err
			}, c
		case strings.HasSuffix(mode, "invoke"):
			// A busy refusal under write contention is a real
			// client-observed read outcome; its latency counts.
			return func(int) error {
				if _, err := c.Invoke("get", value.Str(key())); !errors.Is(err, client.ErrBusy) {
					return err
				}
				return nil
			}, c
		default:
			return func(int) error { _, err := c.Get(key()); return err }, c
		}
	})
	halt.Store(true)
	wwg.Wait()
	for _, err := range werrs {
		die(err)
	}
	t := m.read("e16 " + mode)
	stop()
	for i := range lats {
		lats[i] /= time.Duration(batch)
	}
	return finish(row{Experiment: "e16", Mode: mode, Clients: clients, Batch: batch, Ops: readers * perClient}, el, lats, t)
}
