package crashtest

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/guardian"
	"repro/internal/obs"
	"repro/internal/stable"
	"repro/internal/stablelog"
	"repro/internal/value"
)

// The sweep mode is the exhaustive counterpart of Run: instead of
// crashing at random writes of a random history, it fixes one scripted
// history, counts every device block write W it performs, and replays
// it W times, crashing at write k for each k in 1..W. One enumerator
// drives every deployment shape (Topology); a topology supplies only
// how to replay its history, recover, and check the result.
//
// In the Single topology each crash point is then deepened: the
// recovery that follows is itself crashed at every one of its writes
// (double crash), and each of those recoveries is crashed once more at
// its first write (triple crash), before a final undisturbed recovery
// runs. After every terminal recovery the chapter 6 invariant is
// checked: the recovered state equals the serial run of the actions
// that committed — the pre- or post-state of the interrupted action,
// never a mixture — and structural invariants hold
// (guardian.CheckRecovered).

// DecayMode selects which device copies decay between every crash and
// the recovery that follows. All modes decay at most one copy of any
// block, which two-copy read-repair must survive; loss of both copies
// is exercised separately (it is a detected failure, not a recoverable
// one).
type DecayMode uint8

const (
	// DecayNone injects no read-path faults.
	DecayNone DecayMode = iota
	// DecayDeviceA decays every block of the primary device of every
	// pair before each recovery.
	DecayDeviceA
	// DecayDeviceB decays every block of the secondary device.
	DecayDeviceB
	// DecayAlternate decays even blocks on the primary and odd blocks
	// on the secondary, exercising per-device divergence.
	DecayAlternate
)

func (m DecayMode) String() string {
	switch m {
	case DecayNone:
		return "none"
	case DecayDeviceA:
		return "device-a"
	case DecayDeviceB:
		return "device-b"
	case DecayAlternate:
		return "alternate"
	default:
		return fmt.Sprintf("decay(%d)", uint8(m))
	}
}

// Topology selects the deployment a sweep crashes.
type Topology uint8

const (
	// Single crashes one guardian running the scripted history and
	// deepens every crash point with the double/triple-crash probe.
	Single Topology = iota
	// Replicated crashes a primary that ships its log to two backups
	// and verifies the promoted backup (see replicatedTopology).
	Replicated
	// Sharded crashes the coordinator shard of a two-shard transfer
	// history and verifies the settled cluster (see shardedTopology).
	Sharded
)

func (t Topology) String() string {
	switch t {
	case Single:
		return "single"
	case Replicated:
		return "replicated"
	case Sharded:
		return "sharded"
	default:
		return fmt.Sprintf("topology(%d)", uint8(t))
	}
}

// SweepConfig parameterizes an exhaustive crash-point sweep.
type SweepConfig struct {
	Topology Topology
	// Backend is the recovery system (default hybrid).
	Backend core.Backend
	// Seed derives the scripted history (Sharded has none: its
	// transfer history is fixed).
	Seed int64
	// Steps is the number of scripted actions after the setup action
	// (Sharded: cross-shard transfers, 1..16).
	Steps int
	// Mutex adds a §2.4.2 mutex object to the script (Single only).
	Mutex bool
	// Housekeep interleaves housekeeping passes (Single, hybrid
	// backend only).
	Housekeep bool
	// Decay selects read-path fault injection before every recovery
	// (Single only).
	Decay DecayMode
	// BlockSize is the simulated device block size (default 512).
	BlockSize int
}

// SweepResult summarizes one sweep.
type SweepResult struct {
	// Writes is W, the crashed guardian's device write count for the
	// undisturbed history.
	Writes int
	// Points is the number of distinct crash scenarios verified.
	Points int
	// Recoveries counts recovery attempts, including interrupted ones;
	// a replicated sweep's recoveries are its backup promotions.
	Recoveries int
	// Deepest is the largest number of stacked crashes any point hit
	// (1 unless recovery nests).
	Deepest int
}

// SweepError identifies the exact failing scenario so it can be
// replayed: the topology, backend, seed, decay mode, availability
// pattern, and crash schedule.
type SweepError struct {
	Topology Topology
	Backend  core.Backend
	Seed     int64
	Decay    DecayMode
	Down     DownPattern
	// Crashes is the crash schedule, outermost first: Crashes[0] is the
	// history write the first crash hit, Crashes[1] the write of the
	// first recovery the second crash hit, and so on (empty for the
	// counting run).
	Crashes []int
	// Step is the script step the first crash interrupted (-1 for the
	// setup phase, the step count if the history completed).
	Step int
	Err  error
}

func (e *SweepError) Error() string {
	return fmt.Sprintf("sweep %v %v seed=%d decay=%v down=%v crashes=%v step=%d: %v",
		e.Topology, e.Backend, e.Seed, e.Decay, e.Down, e.Crashes, e.Step, e.Err)
}

func (e *SweepError) Unwrap() error { return e.Err }

// --- the scripted history ----------------------------------------------

const sweepCounters = 3

type stepKind uint8

const (
	stepCommit stepKind = iota
	stepAbort
	stepHousekeep
)

type update struct {
	name  string
	delta int64
}

type scriptStep struct {
	kind     stepKind
	updates  []update
	mutexVal int64 // 0 = no mutex write this step
	early    bool  // early-prepare before committing (hybrid)
	hkKind   core.HousekeepKind
}

func counterName(i int) string { return fmt.Sprintf("c%d", i) }

// buildScript derives the deterministic history from the seed. The
// script, not the runner, holds all randomness: every replay performs
// the same operations in the same order, so the device write sequence
// is identical across replays and write k always lands in the same
// operation.
func buildScript(cfg SweepConfig) []scriptStep {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var script []scriptStep
	for i := 0; i < cfg.Steps; i++ {
		st := scriptStep{kind: stepCommit}
		if rng.Intn(4) == 0 {
			st.kind = stepAbort
		}
		k := 1 + rng.Intn(sweepCounters)
		for _, idx := range rng.Perm(sweepCounters)[:k] {
			st.updates = append(st.updates, update{counterName(idx), int64(rng.Intn(20) - 10)})
		}
		// Seize only on committing steps: mutex modifications are not
		// undone by abort (Argus §2.4.2 — seize is in-place), so a
		// seize on an aborting step would leave the volatile value
		// ahead of every recoverable state and no serial oracle could
		// predict it.
		if cfg.Mutex && st.kind == stepCommit && rng.Intn(2) == 0 {
			st.mutexVal = int64(i + 1)
		}
		if cfg.Backend == core.BackendHybrid && st.kind == stepCommit && rng.Intn(4) == 0 {
			st.early = true
		}
		script = append(script, st)
		if cfg.Housekeep && cfg.Backend == core.BackendHybrid && (i+1)%3 == 0 {
			hk := scriptStep{kind: stepHousekeep, hkKind: core.HousekeepCompact}
			if rng.Intn(2) == 0 {
				hk.hkKind = core.HousekeepSnapshot
			}
			script = append(script, hk)
		}
	}
	return script
}

// counterState is one point of the serial oracle.
type counterState map[string]int64

// oracle precomputes, for each script step i, the committed state
// before and after it, plus the stable mutex value before it. The
// runner never computes state — a crash can interrupt it anywhere, and
// the allowed outcomes must be known independently of how far it got.
type oracle struct {
	pre, post  []counterState
	preMutex   []int64
	finalMutex int64
	zero       counterState
}

func buildOracle(script []scriptStep) *oracle {
	o := &oracle{zero: make(counterState)}
	for i := 0; i < sweepCounters; i++ {
		o.zero[counterName(i)] = 0
	}
	cur := o.zero
	var mutex int64
	for _, st := range script {
		o.pre = append(o.pre, cur)
		o.preMutex = append(o.preMutex, mutex)
		if st.kind == stepCommit {
			next := make(counterState, len(cur))
			//roslint:nondet order-independent: whole-map copy into a keyed map
			for k, v := range cur {
				next[k] = v
			}
			for _, u := range st.updates {
				next[u.name] += u.delta
			}
			cur = next
			if st.mutexVal != 0 {
				mutex = st.mutexVal
			}
		}
		o.post = append(o.post, cur)
	}
	o.finalMutex = mutex
	return o
}

// --- executing the history ---------------------------------------------

// executeScript runs the scripted history on vol until it completes or
// the armed crash fires. It returns the interrupted step index (-1 for
// the setup phase, len(script) on completion) and the guardian (nil
// once crashed). A non-crash error is a harness failure. install, when
// non-nil, runs on the fresh guardian before the setup action — the
// replicated sweep hooks the log replicator in there.
func executeScript(vol *stablelog.MemVolume, cfg SweepConfig, script []scriptStep, tr obs.Tracer, install func(*guardian.Guardian) error) (int, *guardian.Guardian, error) {
	crashed := func(err error) (bool, error) {
		if err == nil {
			return false, nil
		}
		if vol.GlobalCrashFired() {
			return true, nil
		}
		return false, err
	}
	g, err := guardian.New(1, guardian.WithBackend(cfg.Backend), guardian.WithVolume(vol), guardian.WithTracer(tr))
	if c, err := crashed(err); err != nil {
		return -1, nil, err
	} else if c {
		return -1, nil, nil
	}
	// The sweep counts device writes to place crash points; pin
	// synchronous forces so the counts are a pure function of the
	// schedule, independent of group-commit coalescing.
	g.SetSynchronousForces(true)
	if install != nil {
		if err := install(g); err != nil {
			return -1, nil, err
		}
	}
	init := g.Begin()
	var initErr error
	for i := 0; i < sweepCounters && initErr == nil; i++ {
		c, err := init.NewAtomic(value.Int(0))
		if err == nil {
			err = init.SetVar(counterName(i), c)
		}
		initErr = err
	}
	if cfg.Mutex && initErr == nil {
		m, err := init.NewMutex(value.Int(0))
		if err == nil {
			err = init.SetVar("journal", m)
		}
		initErr = err
	}
	if initErr == nil {
		initErr = init.Commit()
	}
	if c, err := crashed(initErr); err != nil {
		return -1, nil, err
	} else if c {
		return -1, nil, nil
	}
	for i, st := range script {
		if c, err := crashed(runStep(g, st)); err != nil {
			return i, nil, fmt.Errorf("step %d: %w", i, err)
		} else if c {
			return i, nil, nil
		}
	}
	return len(script), g, nil
}

func runStep(g *guardian.Guardian, st scriptStep) error {
	if st.kind == stepHousekeep {
		_, err := g.Housekeep(st.hkKind)
		return err
	}
	a := g.Begin()
	for _, u := range st.updates {
		c, ok := g.VarAtomic(u.name)
		if !ok {
			return fmt.Errorf("crashtest: counter %s lost", u.name)
		}
		delta := u.delta
		if err := a.Update(c, func(v value.Value) value.Value {
			return value.Int(int64(v.(value.Int)) + delta)
		}); err != nil {
			return err
		}
	}
	if st.mutexVal != 0 {
		m, ok := g.VarMutex("journal")
		if !ok {
			return fmt.Errorf("crashtest: journal lost")
		}
		v := st.mutexVal
		if err := a.Seize(m, func(value.Value) value.Value { return value.Int(v) }); err != nil {
			return err
		}
	}
	if st.early {
		if err := a.EarlyPrepare(); err != nil {
			return err
		}
	}
	if st.kind == stepAbort {
		return a.Abort()
	}
	return a.Commit()
}

func applyDecay(vol *stablelog.MemVolume, mode DecayMode) {
	if mode == DecayNone {
		return
	}
	vol.EachDevicePair(func(label string, a, b *stable.MemDevice) {
		// Never decay a copy whose sibling is already bad: the crash
		// being recovered from tore the block it interrupted, and a
		// second failure of that page before repair would violate the
		// single-failure assumption (it is genuine data loss, exercised
		// separately as a detected failure).
		decay := func(dev, sib *stable.MemDevice, i int) {
			if !sib.Bad(i) {
				dev.Decay(i)
			}
		}
		n := a.NumBlocks()
		if m := b.NumBlocks(); m > n {
			n = m
		}
		for i := 0; i < n; i++ {
			switch mode {
			case DecayDeviceA:
				decay(a, b, i)
			case DecayDeviceB:
				decay(b, a, i)
			case DecayAlternate:
				if i%2 == 0 {
					decay(a, b, i)
				} else {
					decay(b, a, i)
				}
			}
		}
	})
}

// recoverOnce crashes the volume, optionally applies decay, optionally
// arms a crash at recovery write armAt (0 = unarmed), and attempts a
// full recovery including in-doubt resolution. It returns the recovered
// guardian (nil if the armed crash fired or the site was never durably
// created), whether the armed crash fired, and whether the volume holds
// no site at all.
//
// Decay is injected only before the FIRST recovery after the history
// crash, never before the deeper recoveries of a double/triple-crash
// probe: a crash interrupts repair mid-write, leaving one copy torn,
// and decaying the surviving copy before repair resumes would be a
// second independent failure of the same page — outside the
// single-failure assumption the two-copy protocol (and the thesis)
// makes.
func recoverOnce(vol *stablelog.MemVolume, cfg SweepConfig, armAt int, withDecay bool, tr obs.Tracer) (g *guardian.Guardian, fired, noSite bool, err error) {
	vol.Crash()
	vol.Restart()
	if withDecay {
		applyDecay(vol, cfg.Decay)
	}
	if armAt > 0 {
		vol.ArmGlobalCrashAtWrite(armAt)
	}
	g, err = recovered(guardian.Open(1, vol, cfg.Backend, guardian.WithTracer(tr)))
	if err == nil {
		err = resolveInDoubt(g)
	}
	if err != nil {
		if vol.GlobalCrashFired() {
			return nil, true, false, nil
		}
		if isNoSite(err) {
			return nil, false, true, nil
		}
		return nil, false, false, err
	}
	return g, false, false, nil
}

func isNoSite(err error) bool {
	return errors.Is(err, stablelog.ErrNoSite)
}

// --- verification ------------------------------------------------------

// verifyRecovered checks the chapter 6 invariant for a recovery whose
// first crash interrupted script step s: the counters equal the serial
// pre- or post-state of that step, in full. noSite (the guardian was
// never durably created) is legal only for a setup-phase crash.
func verifyRecovered(g *guardian.Guardian, cfg SweepConfig, script []scriptStep, o *oracle, s int, noSite bool) error {
	if noSite {
		if s != -1 {
			return fmt.Errorf("site vanished though creation had committed")
		}
		return nil
	}
	read := func() (counterState, error) {
		got := make(counterState, sweepCounters)
		for i := 0; i < sweepCounters; i++ {
			n := counterName(i)
			c, ok := g.VarAtomic(n)
			if !ok {
				return nil, nil // counters absent
			}
			v, ok := c.Base().(value.Int)
			if !ok {
				return nil, fmt.Errorf("%s holds %s, not an int", n, value.String(c.Base()))
			}
			got[n] = int64(v)
		}
		return got, nil
	}
	got, err := read()
	if err != nil {
		return err
	}
	if s == -1 {
		// Crash during setup: either the init action never committed
		// (no counters) or it committed in full (all zeros).
		if got == nil {
			return nil
		}
		if !statesEqual(got, o.zero) {
			return fmt.Errorf("setup crash recovered to %v, want absent or all-zero", got)
		}
		return nil
	}
	if got == nil {
		return fmt.Errorf("counters lost after step-%d crash", s)
	}
	var allowed []counterState
	var label string
	switch {
	case s == len(script):
		allowed = []counterState{finalState(o, script)}
		label = "completed history"
	case script[s].kind == stepCommit:
		allowed = []counterState{o.pre[s], o.post[s]}
		label = "interrupted commit"
	default: // abort or housekeeping: committed state must not move
		allowed = []counterState{o.pre[s]}
		label = "interrupted " + stepLabel(script[s].kind)
	}
	idx := -1
	for i, w := range allowed {
		if statesEqual(got, w) {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("%s: recovered %v, allowed %v (neither pre- nor post-state in full)", label, got, allowed)
	}
	return verifyMutex(g, cfg, script, o, s, idx == 1)
}

// verifyMutex checks the §2.4.2 mutex rules: a seize is durable iff the
// writing action prepared, so after a crash the stable value is either
// the pre-crash stable value or the interrupted step's write — and if
// the interrupted action's counters committed, its seize necessarily
// reached stable storage with them.
func verifyMutex(g *guardian.Guardian, cfg SweepConfig, script []scriptStep, o *oracle, s int, tookPost bool) error {
	if !cfg.Mutex {
		return nil
	}
	m, ok := g.VarMutex("journal")
	if !ok {
		return fmt.Errorf("journal lost")
	}
	v, isInt := m.Current().(value.Int)
	if !isInt {
		return fmt.Errorf("journal holds %s", value.String(m.Current()))
	}
	got := int64(v)
	switch {
	case s == len(script):
		if got != o.finalMutex {
			return fmt.Errorf("journal = %d after completed history, want %d", got, o.finalMutex)
		}
	case script[s].kind == stepCommit && script[s].mutexVal != 0:
		if tookPost {
			// The action committed, so its seize is durable with it.
			if got != script[s].mutexVal {
				return fmt.Errorf("action committed but journal = %d, want %d", got, script[s].mutexVal)
			}
		} else if got != o.preMutex[s] && got != script[s].mutexVal {
			// Aborted counters, but the seize survives iff the prepare
			// completed before the crash; both values are legal.
			return fmt.Errorf("journal = %d, want %d or %d", got, o.preMutex[s], script[s].mutexVal)
		}
	default:
		if got != o.preMutex[min(s, len(o.preMutex)-1)] {
			return fmt.Errorf("journal = %d, want %d", got, o.preMutex[min(s, len(o.preMutex)-1)])
		}
	}
	return nil
}

func stepLabel(k stepKind) string {
	switch k {
	case stepAbort:
		return "abort"
	case stepHousekeep:
		return "housekeeping"
	default:
		return "commit"
	}
}

func statesEqual(a, b counterState) bool {
	if len(a) != len(b) {
		return false
	}
	//roslint:nondet order-independent: commutative equality conjunction
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func finalState(o *oracle, script []scriptStep) counterState {
	if len(script) == 0 {
		return o.zero
	}
	return o.post[len(script)-1]
}

// --- the sweep ---------------------------------------------------------

// topology is what a deployment shape supplies the crash-point
// enumerator: data and closures, no control flow of its own.
type topology struct {
	// replay runs the history on fresh storage with a crash armed at
	// device write k of the crashed guardian (0 = unarmed), under
	// availability pattern down. The scenario is non-nil even on error.
	replay func(k int, down DownPattern, chk *obs.Checker) (*scenario, error)
	// patterns are the availability patterns crossed with every write.
	patterns []DownPattern
	// nests reports whether recovery can itself be crashed, which
	// enables the double/triple-crash probe.
	nests bool
	// countRecovery makes the counting run recover (promote) before it
	// verifies, counting one recovery; countPoint counts its
	// verification as a point.
	countRecovery, countPoint bool
}

// scenario is one replayed history.
type scenario struct {
	vol  *stablelog.MemVolume // the crashed guardian's volume
	step int                  // interrupted step (-1 for the setup phase)
	done bool                 // the history ran to completion
	// recover brings the deployment back after the crash, arming a
	// crash at recovery write armAt (0 = unarmed); first marks the
	// first recovery after the history crash. It reports whether the
	// armed crash fired.
	recover func(armAt int, first bool) (fired bool, err error)
	// verify checks the current state — live after an undisturbed
	// history, recovered after a crash — against the serial oracle.
	verify func() error
}

// newTopology rejects the settings a topology does not support and
// builds its descriptor.
func newTopology(cfg SweepConfig) (*topology, error) {
	switch cfg.Topology {
	case Single:
		return singleTopology(cfg), nil
	case Replicated:
		switch {
		case cfg.Mutex || cfg.Housekeep || cfg.Decay != DecayNone:
			return nil, fmt.Errorf("crashtest: replicated sweep takes no mutex, housekeeping or decay")
		case cfg.Backend == core.BackendShadow:
			return nil, fmt.Errorf("crashtest: backend %v has no log site to replicate", cfg.Backend)
		}
		return replicatedTopology(cfg), nil
	case Sharded:
		switch {
		case cfg.Seed != 0 || cfg.Mutex || cfg.Housekeep || cfg.Decay != DecayNone:
			return nil, fmt.Errorf("crashtest: sharded sweep takes no seed, mutex, housekeeping or decay")
		case cfg.Steps < 1 || cfg.Steps > 16:
			return nil, fmt.Errorf("crashtest: sharded sweep steps %d out of range (1..16)", cfg.Steps)
		}
		return shardedTopology(cfg), nil
	}
	return nil, fmt.Errorf("crashtest: unknown topology %v", cfg.Topology)
}

// singleTopology crashes one guardian running the scripted history.
func singleTopology(cfg SweepConfig) *topology {
	script := buildScript(cfg)
	o := buildOracle(script)
	return &topology{
		patterns: []DownPattern{DownNone},
		nests:    true,
		replay: func(k int, _ DownPattern, chk *obs.Checker) (*scenario, error) {
			vol := armedVolume(cfg.BlockSize, k)
			step, g, err := executeScript(vol, cfg, script, chk, nil)
			noSite := false
			return &scenario{
				vol: vol, step: step, done: step == len(script),
				recover: func(armAt int, first bool) (fired bool, err error) {
					g, fired, noSite, err = recoverOnce(vol, cfg, armAt, first, chk)
					return fired, err
				},
				verify: func() error { return verifyRecovered(g, cfg, script, o, step, noSite) },
			}, err
		},
	}
}

// armedVolume returns a fresh volume with a crash armed at write k
// (0 = unarmed).
func armedVolume(blockSize, k int) *stablelog.MemVolume {
	vol := stablelog.NewMemVolume(blockSize)
	vol.ArmGlobalCrashAtWrite(k)
	return vol
}

// maxRecoveryProbe bounds the double-crash probe loop per crash point;
// recoveries of these small scripted histories perform far fewer writes
// than this, so hitting the cap means the probe failed to terminate and
// is itself a bug.
const maxRecoveryProbe = 400

// sweep is one run of the crash-point enumerator.
type sweep struct {
	cfg  SweepConfig
	topo *topology
	res  SweepResult
}

func (s *sweep) fail(down DownPattern, crashes []int, step int, err error) error {
	return &SweepError{
		Topology: s.cfg.Topology, Backend: s.cfg.Backend, Seed: s.cfg.Seed,
		Decay: s.cfg.Decay, Down: down, Crashes: crashes, Step: step, Err: err,
	}
}

// count runs the undisturbed history to tally W, verifying it like
// every crash point.
func (s *sweep) count() error {
	chk := obs.NewChecker(nil)
	sc, err := s.topo.replay(0, DownNone, chk)
	if err == nil && !sc.done {
		err = fmt.Errorf("unarmed history did not complete (stopped at step %d)", sc.step)
	}
	if err == nil && s.topo.countRecovery {
		_, err = sc.recover(0, true)
		s.res.Recoveries++
	}
	if err == nil {
		err = sc.verify()
	}
	if err == nil {
		err = chk.Err()
	}
	if err != nil {
		return s.fail(DownNone, nil, sc.step, err)
	}
	s.res.Writes = sc.vol.GlobalWrites()
	if s.topo.countPoint {
		s.res.Points++
	}
	return nil
}

// point replays the history crashed at write k under pattern down, then
// recovers — arming the i-th recovery's crash at write arms[i] (0 =
// unarmed) — until a recovery completes, and verifies the result under
// the runtime checker that spanned the replay and every recovery. It
// returns the number of stacked crashes and the interrupted step.
func (s *sweep) point(k int, down DownPattern, arms ...int) (depth, step int, err error) {
	crashes := []int{k}
	chk := obs.NewChecker(nil)
	sc, err := s.topo.replay(k, down, chk)
	if err == nil && !sc.vol.GlobalCrashFired() {
		err = fmt.Errorf("replay diverged: the crash armed at write %d never fired", k)
	}
	if err != nil {
		return 0, sc.step, s.fail(down, crashes, sc.step, err)
	}
	depth = 1
	for i, armAt := range arms {
		if armAt > 0 {
			crashes = append(crashes, armAt)
		}
		fired, err := sc.recover(armAt, i == 0)
		s.res.Recoveries++
		if err == nil && fired && armAt == 0 {
			err = fmt.Errorf("unarmed recovery reported a crash")
		}
		if err != nil {
			return depth, sc.step, s.fail(down, crashes, sc.step, err)
		}
		if !fired {
			break
		}
		depth++
	}
	if err := sc.verify(); err != nil {
		return depth, sc.step, s.fail(down, crashes, sc.step, err)
	}
	if err := chk.Err(); err != nil {
		return depth, sc.step, s.fail(down, crashes, sc.step, err)
	}
	s.res.Points++
	s.res.Deepest = max(s.res.Deepest, depth)
	return depth, sc.step, nil
}

// Sweep runs the exhaustive crash-point sweep described in the package
// comment for one configuration. It returns a *SweepError naming the
// failing scenario's replay coordinates on the first property
// violation, or a plain error for a configuration the topology does
// not support.
func Sweep(cfg SweepConfig) (SweepResult, error) {
	if cfg.Backend == 0 {
		cfg.Backend = core.BackendHybrid
	}
	if cfg.BlockSize == 0 {
		cfg.BlockSize = 512
	}
	topo, err := newTopology(cfg)
	if err != nil {
		return SweepResult{}, err
	}
	s := &sweep{cfg: cfg, topo: topo}
	if err := s.count(); err != nil {
		return s.res, err
	}
	for _, down := range topo.patterns {
		for k := 1; k <= s.res.Writes; k++ {
			// Depth 1: crash at history write k, recover undisturbed.
			if _, _, err := s.point(k, down, 0); err != nil {
				return s.res, err
			}
			if !topo.nests {
				continue
			}
			// Depth 2 and 3: crash the recovery at each of its writes m;
			// when that fires, crash the next recovery at its first
			// write, then recover undisturbed. A recovery that finishes
			// before reaching write m ends the probe: it has covered
			// every recovery write.
			for m := 1; ; m++ {
				depth, step, err := s.point(k, down, m, 1, 0)
				if err != nil {
					return s.res, err
				}
				if depth == 1 {
					break
				}
				if m == maxRecoveryProbe {
					return s.res, s.fail(down, []int{k, m + 1}, step, fmt.Errorf("recovery crash probe did not terminate"))
				}
			}
		}
	}
	return s.res, nil
}
