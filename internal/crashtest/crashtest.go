// Package crashtest is a deterministic crash-injection harness for the
// recovery system: it drives a guardian with randomized action
// histories, crashes the node at arbitrary points — including in the
// middle of prepare and commit device writes — recovers, and checks the
// correctness property of thesis chapter 6:
//
//	"For atomic objects the property is that the state of each object
//	after a crash is exactly what is obtained from running all actions
//	that committed at a guardian in their serial order."
//
// The harness keeps a serial oracle of counter values. An action
// interrupted by a crash has an outcome decided by recovery (it either
// reached its commit point or it did not); the recovered state must
// equal either the oracle's pre-action state or its post-action state
// in full — all-or-nothing — and the oracle adopts whichever recovery
// chose.
package crashtest

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/guardian"
	"repro/internal/object"
	"repro/internal/obs"
	"repro/internal/twopc"
	"repro/internal/value"
)

// Config parameterizes a harness run.
type Config struct {
	Backend  core.Backend
	Counters int
	Steps    int
	Seed     int64
	// Mutex adds a mutex object to the workload, tracked with the
	// §2.4.2 semantics: seize modifications of unprepared actions are
	// visible in volatile memory but vanish at a crash, while any
	// prepared modification survives even aborts.
	Mutex bool
	// CrashEvery ~1/n of actions are interrupted by a device-level
	// crash at a random write. 0 disables mid-action crashes.
	CrashEvery int
	// HousekeepEvery runs housekeeping every n committed actions
	// (hybrid backend only). 0 disables.
	HousekeepEvery int
}

// Result summarizes a run.
type Result struct {
	Committed, Aborted, Crashes, Recoveries int
}

// Run executes the harness and returns an error on the first property
// violation.
func Run(cfg Config) (Result, error) {
	var res Result
	rng := rand.New(rand.NewSource(cfg.Seed))
	// The whole history, crashes and recoveries included, runs under a
	// runtime invariant checker fed by the event stream; the tracer
	// survives Restart with the rest of the guardian configuration.
	chk := obs.NewChecker(nil)
	g, err := guardian.New(1, guardian.WithBackend(cfg.Backend), guardian.WithTracer(chk))
	if err != nil {
		return res, err
	}
	// Scripted histories replay by device-write index: synchronous
	// forces keep the write sequence deterministic.
	g.SetSynchronousForces(true)

	names := make([]string, cfg.Counters)
	oracle := make(map[string]int64, cfg.Counters)
	// Initialize the stable state.
	init := g.Begin()
	for i := range names {
		names[i] = fmt.Sprintf("c%d", i)
		obj, err := init.NewAtomic(value.Int(0))
		if err != nil {
			return res, err
		}
		if err := init.SetVar(names[i], obj); err != nil {
			return res, err
		}
		oracle[names[i]] = 0
	}
	var stableMutex, volatileMutex int64
	if cfg.Mutex {
		m, err := init.NewMutex(value.Int(0))
		if err != nil {
			return res, err
		}
		if err := init.SetVar("journal", m); err != nil {
			return res, err
		}
	}
	if err := init.Commit(); err != nil {
		return res, err
	}

	counters := func() (map[string]*object.Atomic, error) {
		out := make(map[string]*object.Atomic, len(names))
		for _, n := range names {
			c, ok := g.VarAtomic(n)
			if !ok {
				return nil, fmt.Errorf("crashtest: counter %s lost", n)
			}
			out[n] = c
		}
		return out, nil
	}

	check := func(want map[string]int64, label string) error {
		cs, err := counters()
		if err != nil {
			return err
		}
		for _, n := range names {
			c := cs[n]
			got, ok := c.Base().(value.Int)
			if !ok || int64(got) != want[n] {
				return fmt.Errorf("crashtest: %s: %s = %s, want %d",
					label, n, value.String(c.Base()), want[n])
			}
		}
		return nil
	}

	stateEquals := func(want map[string]int64) (bool, error) {
		cs, err := counters()
		if err != nil {
			return false, err
		}
		for _, n := range names {
			c := cs[n]
			got, ok := c.Base().(value.Int)
			if !ok || int64(got) != want[n] {
				return false, nil
			}
		}
		return true, nil
	}

	checkMutex := func(label string, want int64) error {
		if !cfg.Mutex {
			return nil
		}
		m, ok := g.VarMutex("journal")
		if !ok {
			return fmt.Errorf("crashtest: %s: journal lost", label)
		}
		got, isInt := m.Current().(value.Int)
		if !isInt || int64(got) != want {
			return fmt.Errorf("crashtest: %s: journal = %s, want %d",
				label, value.String(m.Current()), want)
		}
		return nil
	}

	committedSinceHK := 0
	for step := 0; step < cfg.Steps; step++ {
		cs, err := counters()
		if err != nil {
			return res, err
		}
		// Build a candidate action touching 1..3 counters.
		candidate := make(map[string]int64, len(oracle))
		for _, n := range names {
			candidate[n] = oracle[n]
		}
		a := g.Begin()
		k := 1 + rng.Intn(3)
		perm := rng.Perm(len(names))[:k]
		var actErr error
		for _, idx := range perm {
			n := names[idx]
			delta := int64(rng.Intn(20) - 10)
			candidate[n] += delta
			if err := a.Update(cs[n], func(v value.Value) value.Value {
				return value.Int(int64(v.(value.Int)) + delta)
			}); err != nil {
				actErr = err
				break
			}
		}
		if actErr != nil {
			return res, actErr
		}
		mutexWritten := false
		if cfg.Mutex && rng.Intn(2) == 0 {
			m, ok := g.VarMutex("journal")
			if !ok {
				return res, fmt.Errorf("crashtest: journal lost at step %d", step)
			}
			v := int64(step + 1)
			if err := a.Seize(m, func(value.Value) value.Value { return value.Int(v) }); err != nil {
				return res, err
			}
			volatileMutex = v
			mutexWritten = true
		}
		// Occasionally early-prepare (hybrid only).
		if cfg.Backend == core.BackendHybrid && rng.Intn(4) == 0 {
			if err := a.EarlyPrepare(); err != nil {
				return res, err
			}
		}

		crashing := cfg.CrashEvery > 0 && rng.Intn(cfg.CrashEvery) == 0
		switch {
		case crashing:
			// Arm a device crash at a random upcoming write, then try to
			// commit; whether the action survives is recovery's call.
			g.Volume().ArmCrashAfterWrites(1 + rng.Intn(6))
			err := a.Commit()
			g.Crash()
			res.Crashes++
			g, err = recovered(guardian.Restart(g))
			if err != nil {
				return res, err
			}
			res.Recoveries++
			if err := resolveInDoubt(g); err != nil {
				return res, err
			}
			// All-or-nothing: the recovered state is the old state or
			// the candidate state, never a mixture.
			if ok, err := stateEquals(oracle); err != nil {
				return res, err
			} else if ok {
				// aborted by the crash
			} else if ok, err := stateEquals(candidate); err != nil {
				return res, err
			} else if ok {
				oracle = candidate
				if mutexWritten {
					// The action reached at least its prepare, so the
					// mutex version is durable (§2.4.2).
					stableMutex = volatileMutex
				}
			} else {
				return res, fmt.Errorf("crashtest: step %d: recovered state is neither pre- nor post-action", step)
			}
			if cfg.Mutex && mutexWritten {
				// The mutex may have survived independently of the
				// atomic outcome: it is durable iff the prepare
				// completed. Accept either the old or new stable value,
				// then adopt what recovery chose.
				m, ok := g.VarMutex("journal")
				if !ok {
					return res, fmt.Errorf("crashtest: journal lost after crash at step %d", step)
				}
				got, isInt := m.Current().(value.Int)
				if !isInt || (int64(got) != stableMutex && int64(got) != volatileMutex) {
					return res, fmt.Errorf("crashtest: step %d: journal = %s, want %d or %d",
						step, value.String(m.Current()), stableMutex, volatileMutex)
				}
				stableMutex = int64(got)
			}
			volatileMutex = stableMutex

		case rng.Intn(4) == 0:
			if err := a.Abort(); err != nil {
				return res, err
			}
			res.Aborted++
			if err := check(oracle, fmt.Sprintf("after abort at step %d", step)); err != nil {
				return res, err
			}
			// An aborted (never-prepared) action's seize stays visible
			// in volatile memory but is not durable (§2.4.2): the
			// volatile oracle keeps the new value, the stable one the
			// old.
			if err := checkMutex(fmt.Sprintf("after abort at step %d", step), volatileMutex); err != nil {
				return res, err
			}

		default:
			if err := a.Commit(); err != nil {
				return res, err
			}
			res.Committed++
			committedSinceHK++
			oracle = candidate
			if mutexWritten {
				stableMutex = volatileMutex
			}
			if err := check(oracle, fmt.Sprintf("after commit at step %d", step)); err != nil {
				return res, err
			}
			if err := checkMutex(fmt.Sprintf("after commit at step %d", step), volatileMutex); err != nil {
				return res, err
			}
		}

		// Clean crash (between actions) sometimes.
		if rng.Intn(10) == 0 {
			g.Crash()
			res.Crashes++
			g, err = recovered(guardian.Restart(g))
			if err != nil {
				return res, err
			}
			res.Recoveries++
			if err := resolveInDoubt(g); err != nil {
				return res, err
			}
			if err := check(oracle, fmt.Sprintf("after clean crash at step %d", step)); err != nil {
				return res, err
			}
			volatileMutex = stableMutex
			if err := checkMutex(fmt.Sprintf("after clean crash at step %d", step), stableMutex); err != nil {
				return res, err
			}
		}

		// Housekeeping.
		if cfg.HousekeepEvery > 0 && cfg.Backend == core.BackendHybrid &&
			committedSinceHK >= cfg.HousekeepEvery {
			committedSinceHK = 0
			kind := core.HousekeepCompact
			if rng.Intn(2) == 0 {
				kind = core.HousekeepSnapshot
			}
			if _, err := g.Housekeep(kind); err != nil {
				return res, fmt.Errorf("crashtest: housekeeping at step %d: %w", step, err)
			}
			if err := check(oracle, fmt.Sprintf("after housekeeping at step %d", step)); err != nil {
				return res, err
			}
		}
	}
	if err := chk.Err(); err != nil {
		return res, err
	}
	return res, nil
}

// recovered finishes every recovery the harnesses run: it pins
// synchronous forces on the recovered guardian, so device write counts
// stay a pure function of the schedule, and audits its structural
// invariants (guardian.CheckRecovered). It passes a recovery error
// through untouched.
func recovered(g *guardian.Guardian, err error) (*guardian.Guardian, error) {
	if err != nil {
		return nil, err
	}
	g.SetSynchronousForces(true)
	if err := guardian.CheckRecovered(g); err != nil {
		return nil, err
	}
	return g, nil
}

// resolveInDoubt settles actions that were prepared at the crash. The
// harness's actions are single-guardian, so the guardian is its own
// coordinator: committed iff its committing record survived.
func resolveInDoubt(g *guardian.Guardian) error {
	for _, aid := range g.InDoubt() {
		var err error
		if g.OutcomeOf(aid) == twopc.OutcomeCommitted {
			err = g.HandleCommit(aid)
		} else {
			err = g.HandleAbort(aid)
		}
		if err != nil {
			return err
		}
	}
	// Finish phase two for any action committed but not done.
	for _, aid := range g.Unfinished() {
		if err := g.Done(aid); err != nil {
			return err
		}
	}
	return nil
}
