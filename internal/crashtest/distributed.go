package crashtest

// Distributed crash testing: several guardians exchange funds through
// two-phase commit while nodes crash at random points of the protocol.
// The invariant is the distributed analogue of the chapter 6 property:
// across all guardians, every committed action is all-or-nothing, so
// the total of all committed balances is conserved; in-doubt actions
// resolve to the coordinator's verdict (§2.2.2/§2.2.3).

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/guardian"
	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/twopc"
	"repro/internal/value"
)

// DistributedConfig parameterizes a distributed harness run.
type DistributedConfig struct {
	Backend   core.Backend
	Guardians int
	Steps     int
	Seed      int64
	// CrashEvery ~1/n transfers are interrupted by crashing a random
	// involved guardian at a random protocol step.
	CrashEvery int
	// HousekeepEvery runs a snapshot pass at a random guardian every n
	// steps (hybrid backend only; 0 disables).
	HousekeepEvery int
	// InitialBalance per guardian.
	InitialBalance int64
}

// DistributedResult summarizes a run.
type DistributedResult struct {
	Committed, Aborted, Crashes, Queries int
}

// RunDistributed executes the harness, returning an error on the first
// invariant violation.
func RunDistributed(cfg DistributedConfig) (DistributedResult, error) {
	var res DistributedResult
	rng := rand.New(rand.NewSource(cfg.Seed))
	net := netsim.New()

	gs := make([]*guardian.Guardian, cfg.Guardians)
	for i := range gs {
		g, err := guardian.New(ids.GuardianID(i+1), guardian.WithBackend(cfg.Backend))
		if err != nil {
			return res, err
		}
		g.SetSynchronousForces(true)
		boot := g.Begin()
		vault, err := boot.NewAtomic(value.Int(cfg.InitialBalance))
		if err != nil {
			return res, err
		}
		if err := boot.SetVar("vault", vault); err != nil {
			return res, err
		}
		if err := boot.Commit(); err != nil {
			return res, err
		}
		gs[i] = g
	}
	total := cfg.InitialBalance * int64(cfg.Guardians)

	balance := func(g *guardian.Guardian) (int64, error) {
		v, ok := g.VarAtomic("vault")
		if !ok {
			return 0, fmt.Errorf("crashtest: vault lost at %v", g.ID())
		}
		iv, ok := v.Base().(value.Int)
		if !ok {
			return 0, fmt.Errorf("crashtest: vault at %v is %s", g.ID(), value.String(v.Base()))
		}
		return int64(iv), nil
	}

	// settle recovers crashed guardians, then settles two-phase commit
	// across all of them.
	settle := func() error {
		for i, g := range gs {
			if !netUp(net, g) {
				net.SetDown(g.ID(), false)
				ng, err := recovered(guardian.Restart(g))
				if err != nil {
					return err
				}
				gs[i] = ng
			}
		}
		q, err := settle2PC(net, gs, nil)
		res.Queries += q
		return err
	}

	checkConservation := func(step int) error {
		var sum int64
		for _, g := range gs {
			b, err := balance(g)
			if err != nil {
				return err
			}
			sum += b
		}
		if sum != total {
			return fmt.Errorf("crashtest: step %d: total = %d, want %d (money not conserved)",
				step, sum, total)
		}
		return nil
	}

	for step := 0; step < cfg.Steps; step++ {
		// Pick a coordinator and a distinct participant.
		ci := rng.Intn(len(gs))
		pi := rng.Intn(len(gs) - 1)
		if pi >= ci {
			pi++
		}
		coord, part := gs[ci], gs[pi]
		amount := int64(rng.Intn(50) + 1)

		a := coord.Begin()
		branch := part.Join(a.ID())
		cv, _ := coord.VarAtomic("vault")
		pv, _ := part.VarAtomic("vault")
		if err := a.Update(cv, func(v value.Value) value.Value {
			return value.Int(int64(v.(value.Int)) - amount)
		}); err != nil {
			return res, err
		}
		if err := branch.Update(pv, func(v value.Value) value.Value {
			return value.Int(int64(v.(value.Int)) + amount)
		}); err != nil {
			return res, err
		}

		crashing := cfg.CrashEvery > 0 && rng.Intn(cfg.CrashEvery) == 0
		if crashing {
			// Crash one of the two at a random point of the protocol by
			// arming a device-level crash there, then run 2PC; the run
			// fails partway.
			victim := coord
			if rng.Intn(2) == 0 {
				victim = part
			}
			victim.Volume().ArmCrashAfterWrites(1 + rng.Intn(8))
			c := &twopc.Coordinator{Self: coord.ID(), Net: net, Log: coord}
			//roslint:besteffort crash-injected run is expected to fail; settle/conservation checks judge the outcome
			_, _ = c.Run(a.ID(), []twopc.Participant{coord, part})
			victim.Crash()
			net.SetDown(victim.ID(), true)
			res.Crashes++
			if err := settle(); err != nil {
				return res, err
			}
			if err := checkConservation(step); err != nil {
				return res, err
			}
			continue
		}

		c := &twopc.Coordinator{Self: coord.ID(), Net: net, Log: coord}
		r, err := c.Run(a.ID(), []twopc.Participant{coord, part})
		if err != nil {
			res.Aborted++
		} else if r.Outcome == twopc.OutcomeCommitted {
			res.Committed++
		}
		if err := checkConservation(step); err != nil {
			return res, err
		}

		if cfg.HousekeepEvery > 0 && cfg.Backend == core.BackendHybrid &&
			step > 0 && step%cfg.HousekeepEvery == 0 {
			hg := gs[rng.Intn(len(gs))]
			if _, err := hg.Housekeep(core.HousekeepSnapshot); err != nil {
				return res, fmt.Errorf("crashtest: distributed housekeeping at step %d: %w", step, err)
			}
			if err := checkConservation(step); err != nil {
				return res, err
			}
		}
	}
	// Final settle and a clean crash-all to confirm stable-state
	// conservation.
	if err := settle(); err != nil {
		return res, err
	}
	for i, g := range gs {
		g.Crash()
		ng, err := recovered(guardian.Restart(g))
		if err != nil {
			return res, err
		}
		gs[i] = ng
		res.Crashes++
	}
	if err := settle(); err != nil {
		return res, err
	}
	if err := checkConservation(cfg.Steps); err != nil {
		return res, err
	}
	return res, nil
}

// settle2PC finishes two-phase commit across the guardians after
// recoveries (§2.2.2/§2.2.3), in three passes: coordinators re-drive
// phase two of their unfinished committing actions; every in-doubt
// branch queries its coordinator and applies the verdict; branches
// that never prepared are aborted unless their coordinator committed
// (commitment requires every participant's prepared vote, so only a
// settled prepared branch can belong to a committed action). It
// returns the number of outcome queries.
func settle2PC(net *netsim.Network, gs []*guardian.Guardian, tr obs.Tracer) (queries int, err error) {
	parts := make([]twopc.Participant, len(gs))
	for i, g := range gs {
		parts[i] = g
	}
	coordOf := func(aid ids.ActionID) (*guardian.Guardian, error) {
		for _, g := range gs {
			if g.ID() == aid.Coordinator {
				return g, nil
			}
		}
		return nil, fmt.Errorf("crashtest: no coordinator %v for %v", aid.Coordinator, aid)
	}
	for _, g := range gs {
		for _, aid := range g.Unfinished() {
			c := &twopc.Coordinator{Self: g.ID(), Net: net, Log: g, Tracer: tr}
			if _, err := c.Complete(aid, parts); err != nil {
				return queries, err
			}
		}
	}
	for _, g := range gs {
		for _, aid := range g.InDoubt() {
			coord, err := coordOf(aid)
			if err != nil {
				return queries, err
			}
			out, err := twopc.Query(net, g.ID(), coord, aid)
			if err != nil {
				return queries, err
			}
			queries++
			if out == twopc.OutcomeCommitted {
				err = g.HandleCommit(aid)
			} else {
				err = g.HandleAbort(aid)
			}
			if err != nil {
				return queries, err
			}
		}
	}
	for _, g := range gs {
		for _, aid := range g.LiveActions() {
			coord, err := coordOf(aid)
			if err != nil {
				return queries, err
			}
			if coord.OutcomeOf(aid) == twopc.OutcomeCommitted {
				continue
			}
			if err := g.HandleAbort(aid); err != nil {
				return queries, err
			}
		}
	}
	return queries, nil
}

func netUp(net *netsim.Network, g *guardian.Guardian) bool {
	return net.Reachable(g.ID(), g.ID())
}
