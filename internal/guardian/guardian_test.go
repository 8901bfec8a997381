package guardian

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/object"
	"repro/internal/twopc"
	"repro/internal/value"
)

func backends() []core.Backend {
	return []core.Backend{core.BackendSimple, core.BackendHybrid, core.BackendShadow}
}

func forBackends(t *testing.T, fn func(t *testing.T, b core.Backend)) {
	for _, b := range backends() {
		b := b
		t.Run(b.String(), func(t *testing.T) { fn(t, b) })
	}
}

func mustGuardian(t *testing.T, id ids.GuardianID, b core.Backend) *Guardian {
	t.Helper()
	g, err := New(id, WithBackend(b))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// initCounter commits an action that binds stable variable "counter".
func initCounter(t *testing.T, g *Guardian, initial int64) *object.Atomic {
	t.Helper()
	a := g.Begin()
	c, err := a.NewAtomic(value.Int(initial))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SetVar("counter", c); err != nil {
		t.Fatal(err)
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	return c
}

func counterValue(t *testing.T, g *Guardian) int64 {
	t.Helper()
	c, ok := g.VarAtomic("counter")
	if !ok {
		t.Fatal("counter variable missing")
	}
	v, ok := c.Base().(value.Int)
	if !ok {
		t.Fatalf("counter = %s", value.String(c.Base()))
	}
	return int64(v)
}

func TestLocalCommitSurvivesCrash(t *testing.T) {
	forBackends(t, func(t *testing.T, b core.Backend) {
		g := mustGuardian(t, 1, b)
		c := initCounter(t, g, 10)
		a := g.Begin()
		if err := a.Update(c, func(v value.Value) value.Value {
			return value.Int(int64(v.(value.Int)) + 5)
		}); err != nil {
			t.Fatal(err)
		}
		if err := a.Commit(); err != nil {
			t.Fatal(err)
		}
		g.Crash()
		g2, err := Restart(g)
		if err != nil {
			t.Fatal(err)
		}
		if got := counterValue(t, g2); got != 15 {
			t.Fatalf("counter = %d, want 15", got)
		}
	})
}

func TestAbortRestoresState(t *testing.T) {
	forBackends(t, func(t *testing.T, b core.Backend) {
		g := mustGuardian(t, 1, b)
		c := initCounter(t, g, 10)
		a := g.Begin()
		if err := a.Set(c, value.Int(999)); err != nil {
			t.Fatal(err)
		}
		if err := a.Abort(); err != nil {
			t.Fatal(err)
		}
		if got := counterValue(t, g); got != 10 {
			t.Fatalf("counter = %d, want 10", got)
		}
		// And nothing of the aborted action survives a crash.
		g.Crash()
		g2, err := Restart(g)
		if err != nil {
			t.Fatal(err)
		}
		if got := counterValue(t, g2); got != 10 {
			t.Fatalf("after crash counter = %d, want 10", got)
		}
	})
}

func TestUncommittedActionLostOnCrash(t *testing.T) {
	forBackends(t, func(t *testing.T, b core.Backend) {
		g := mustGuardian(t, 1, b)
		c := initCounter(t, g, 10)
		a := g.Begin()
		if err := a.Set(c, value.Int(999)); err != nil {
			t.Fatal(err)
		}
		g.Crash()
		g2, err := Restart(g)
		if err != nil {
			t.Fatal(err)
		}
		if got := counterValue(t, g2); got != 10 {
			t.Fatalf("counter = %d, want 10", got)
		}
		// No stale locks.
		c2, _ := g2.VarAtomic("counter")
		if !c2.Writer().IsZero() {
			t.Fatalf("stale write lock: %v", c2.Writer())
		}
	})
}

func TestCrashBeforeFirstCommit(t *testing.T) {
	forBackends(t, func(t *testing.T, b core.Backend) {
		g := mustGuardian(t, 1, b)
		g.Crash()
		g2, err := Restart(g)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := g2.Var("anything"); ok {
			t.Fatal("phantom variable after empty recovery")
		}
		// The reborn guardian is usable.
		initCounter(t, g2, 1)
		if got := counterValue(t, g2); got != 1 {
			t.Fatalf("counter = %d", got)
		}
	})
}

func TestUIDsNotReusedAfterCrash(t *testing.T) {
	forBackends(t, func(t *testing.T, b core.Backend) {
		g := mustGuardian(t, 1, b)
		c := initCounter(t, g, 0)
		g.Crash()
		g2, err := Restart(g)
		if err != nil {
			t.Fatal(err)
		}
		a := g2.Begin()
		fresh, err := a.NewAtomic(value.Int(0))
		if err != nil {
			t.Fatal(err)
		}
		if fresh.UID() <= c.UID() {
			t.Fatalf("UID %v reused or regressed (old max %v)", fresh.UID(), c.UID())
		}
	})
}

func TestMutexVariable(t *testing.T) {
	forBackends(t, func(t *testing.T, b core.Backend) {
		g := mustGuardian(t, 1, b)
		a := g.Begin()
		m, err := a.NewMutex(value.NewList(value.Str("log")))
		if err != nil {
			t.Fatal(err)
		}
		if err := a.SetVar("journal", m); err != nil {
			t.Fatal(err)
		}
		if err := a.Seize(m, func(v value.Value) value.Value {
			l := v.(*value.List)
			l.Elems = append(l.Elems, value.Str("entry-1"))
			return l
		}); err != nil {
			t.Fatal(err)
		}
		if err := a.Commit(); err != nil {
			t.Fatal(err)
		}
		g.Crash()
		g2, err := Restart(g)
		if err != nil {
			t.Fatal(err)
		}
		m2, ok := g2.VarMutex("journal")
		if !ok {
			t.Fatal("journal lost")
		}
		l := m2.Current().(*value.List)
		if len(l.Elems) != 2 || l.Elems[1] != value.Str("entry-1") {
			t.Fatalf("journal = %s", value.String(m2.Current()))
		}
	})
}

// distributedFixture: three guardians on a network.
type distributedFixture struct {
	net  *netsim.Network
	g    []*Guardian
	cs   []*object.Atomic // counter at each guardian
	coor *twopc.Coordinator
}

func newDistributed(t *testing.T, b core.Backend) *distributedFixture {
	t.Helper()
	f := &distributedFixture{net: netsim.New()}
	for i := 0; i < 3; i++ {
		g := mustGuardian(t, ids.GuardianID(i+1), b)
		f.g = append(f.g, g)
		f.cs = append(f.cs, initCounter(t, g, int64(100*(i+1))))
	}
	f.coor = &twopc.Coordinator{Self: f.g[0].ID(), Net: f.net, Log: f.g[0]}
	return f
}

// spread starts a top-level action at g[0] and applies delta at each
// guardian's counter.
func (f *distributedFixture) spread(t *testing.T, deltas [3]int64) (ids.ActionID, []twopc.Participant) {
	t.Helper()
	a := f.g[0].Begin()
	parts := make([]twopc.Participant, 0, 3)
	for i, g := range f.g {
		var br *Action
		if i == 0 {
			br = a
		} else {
			br = g.Join(a.ID())
		}
		d := deltas[i]
		if err := br.Update(f.cs[i], func(v value.Value) value.Value {
			return value.Int(int64(v.(value.Int)) + d)
		}); err != nil {
			t.Fatal(err)
		}
		parts = append(parts, g)
	}
	return a.ID(), parts
}

func TestDistributedCommit(t *testing.T) {
	forBackends(t, func(t *testing.T, b core.Backend) {
		f := newDistributed(t, b)
		aid, parts := f.spread(t, [3]int64{-30, +10, +20})
		res, err := f.coor.Run(aid, parts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome != twopc.OutcomeCommitted || !res.Done {
			t.Fatalf("result = %+v", res)
		}
		want := []int64{70, 210, 320}
		for i, g := range f.g {
			if got := counterValue(t, g); got != want[i] {
				t.Fatalf("guardian %d counter = %d, want %d", i+1, got, want[i])
			}
		}
	})
}

func TestDistributedAbortOnCrashedParticipant(t *testing.T) {
	forBackends(t, func(t *testing.T, b core.Backend) {
		f := newDistributed(t, b)
		aid, parts := f.spread(t, [3]int64{-30, +10, +20})
		// Participant 3 crashes before the prepare arrives.
		f.g[2].Crash()
		f.net.SetDown(f.g[2].ID(), true)
		_, err := f.coor.Run(aid, parts)
		if err == nil {
			t.Fatal("commit succeeded with crashed participant")
		}
		// Survivors must have aborted: counters unchanged.
		if got := counterValue(t, f.g[0]); got != 100 {
			t.Fatalf("guardian 1 counter = %d, want 100", got)
		}
		if got := counterValue(t, f.g[1]); got != 200 {
			t.Fatalf("guardian 2 counter = %d, want 200", got)
		}
		// The crashed participant recovers to its old state too.
		f.net.SetDown(f.g[2].ID(), false)
		g3, err := Restart(f.g[2])
		if err != nil {
			t.Fatal(err)
		}
		if got := counterValue(t, g3); got != 300 {
			t.Fatalf("guardian 3 counter = %d, want 300", got)
		}
	})
}

// TestTwoPCCrashMatrix (experiment E7): crash a participant or the
// coordinator at each step of two-phase commit; after recovery and
// verdict resolution every guardian agrees and balances are
// all-or-nothing.
func TestTwoPCCrashMatrix(t *testing.T) {
	type step int
	const (
		crashParticipantBeforePrepare step = iota
		crashParticipantAfterPrepare
		crashCoordinatorBeforeCommitting
		crashCoordinatorAfterCommitting
		crashParticipantBeforeCommitMsg
		noCrash
	)
	steps := []struct {
		step step
		name string
		// wantCommit: whether the transfer must be visible at the end.
		wantCommit bool
	}{
		{crashParticipantBeforePrepare, "participant-before-prepare", false},
		{crashParticipantAfterPrepare, "participant-after-prepare", false},
		{crashCoordinatorBeforeCommitting, "coordinator-before-committing", false},
		{crashCoordinatorAfterCommitting, "coordinator-after-committing", true},
		{crashParticipantBeforeCommitMsg, "participant-before-commit-msg", true},
		{noCrash, "no-crash", true},
	}
	forBackends(t, func(t *testing.T, b core.Backend) {
		for _, tc := range steps {
			tc := tc
			t.Run(tc.name, func(t *testing.T) {
				f := newDistributed(t, b)
				aid, parts := f.spread(t, [3]int64{-30, +10, +20})
				coordinator := f.g[0]
				victim := f.g[1]

				// Drive the protocol by hand to hit the exact step.
				runManual := func() {
					switch tc.step {
					case crashParticipantBeforePrepare:
						victim.Crash()
						f.net.SetDown(victim.ID(), true)
						_, _ = f.coor.Run(aid, parts)
					case crashParticipantAfterPrepare:
						// Prepare everywhere, then crash the participant;
						// the coordinator times out waiting and aborts.
						for _, p := range parts {
							if v, err := p.(*Guardian).HandlePrepare(aid); err != nil || v != twopc.VotePrepared {
								t.Fatalf("prepare: %v %v", v, err)
							}
						}
						victim.Crash()
						f.net.SetDown(victim.ID(), true)
						// Coordinator aborts unilaterally (it may not
						// have heard the last vote): it never writes
						// committing and tells the others to abort.
						for _, p := range parts {
							_ = f.net.Call(coordinator.ID(), p.(*Guardian).ID(), func() error {
								return p.(*Guardian).HandleAbort(aid)
							})
						}
					case crashCoordinatorBeforeCommitting:
						for _, p := range parts {
							if _, err := p.(*Guardian).HandlePrepare(aid); err != nil {
								t.Fatal(err)
							}
						}
						coordinator.Crash()
						f.net.SetDown(coordinator.ID(), true)
					case crashCoordinatorAfterCommitting:
						for _, p := range parts {
							if _, err := p.(*Guardian).HandlePrepare(aid); err != nil {
								t.Fatal(err)
							}
						}
						if err := coordinator.Committing(aid, []ids.GuardianID{1, 2, 3}); err != nil {
							t.Fatal(err)
						}
						coordinator.Crash()
						f.net.SetDown(coordinator.ID(), true)
					case crashParticipantBeforeCommitMsg:
						for _, p := range parts {
							if _, err := p.(*Guardian).HandlePrepare(aid); err != nil {
								t.Fatal(err)
							}
						}
						if err := coordinator.Committing(aid, []ids.GuardianID{1, 2, 3}); err != nil {
							t.Fatal(err)
						}
						victim.Crash()
						f.net.SetDown(victim.ID(), true)
						// Commit reaches the others; the victim is
						// unresponsive.
						res, err := f.coor.Complete(aid, parts)
						if err != nil {
							t.Fatal(err)
						}
						if res.Done {
							t.Fatal("done written with unresponsive participant")
						}
					case noCrash:
						if _, err := f.coor.Run(aid, parts); err != nil {
							t.Fatal(err)
						}
					}
				}
				runManual()

				// Recovery: restart whoever crashed, resolve in-doubt
				// actions by querying the coordinator.
				guardians := []*Guardian{f.g[0], f.g[1], f.g[2]}
				for i, g := range guardians {
					g.mu.Lock()
					crashed := g.crashed
					g.mu.Unlock()
					if crashed {
						f.net.SetDown(g.ID(), false)
						ng, err := Restart(g)
						if err != nil {
							t.Fatal(err)
						}
						guardians[i] = ng
					}
				}
				coordinatorNow := guardians[0]
				// In-doubt participants query the coordinator (§2.2.2).
				for _, g := range guardians {
					for _, inDoubt := range g.InDoubt() {
						out, err := twopc.Query(f.net, g.ID(), coordinatorNow, inDoubt)
						if err != nil {
							t.Fatalf("query: %v", err)
						}
						switch out {
						case twopc.OutcomeCommitted:
							if err := g.HandleCommit(inDoubt); err != nil {
								t.Fatal(err)
							}
						case twopc.OutcomeAborted:
							if err := g.HandleAbort(inDoubt); err != nil {
								t.Fatal(err)
							}
						}
					}
					// A recovered coordinator re-drives phase two.
					for _, unfinished := range g.Unfinished() {
						if unfinished == aid && g.ID() == coordinatorNow.ID() {
							ps := make([]twopc.Participant, len(guardians))
							for i := range guardians {
								ps[i] = guardians[i]
							}
							c := &twopc.Coordinator{Self: g.ID(), Net: f.net, Log: g}
							if _, err := c.Complete(aid, ps); err != nil {
								t.Fatal(err)
							}
						}
					}
				}

				// Verify all-or-nothing.
				want := []int64{100, 200, 300}
				if tc.wantCommit {
					want = []int64{70, 210, 320}
				}
				for i, g := range guardians {
					if got := counterValue(t, g); got != want[i] {
						t.Fatalf("%s: guardian %d = %d, want %d (commit=%v)",
							tc.name, i+1, got, want[i], tc.wantCommit)
					}
				}
			})
		}
	})
}

// TestPreparedBranchSurvivesUnrelatedCommit: a participant prepares a
// branch of a remote action, then commits an unrelated local action and
// crashes. The branch must come back in doubt — still holding its
// update for the coordinator's verdict — and stay in doubt across a
// second unrelated commit and crash, until the verdict arrives.
func TestPreparedBranchSurvivesUnrelatedCommit(t *testing.T) {
	forBackends(t, func(t *testing.T, b core.Backend) {
		g := mustGuardian(t, 2, b)
		c := initCounter(t, g, 10)
		remote := ids.ActionID{Coordinator: 1, Seq: 7}
		branch := g.Join(remote)
		if err := branch.Update(c, func(v value.Value) value.Value {
			return value.Int(int64(v.(value.Int)) + 5)
		}); err != nil {
			t.Fatal(err)
		}
		if v, err := g.HandlePrepare(remote); err != nil || v != twopc.VotePrepared {
			t.Fatalf("prepare: %v %v", v, err)
		}
		unrelated := func(g *Guardian, name string) {
			t.Helper()
			a := g.Begin()
			x, err := a.NewAtomic(value.Int(1))
			if err != nil {
				t.Fatal(err)
			}
			if err := a.SetVar(name, x); err != nil {
				t.Fatal(err)
			}
			if err := a.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		crashRestart := func(g *Guardian) *Guardian {
			t.Helper()
			g.Crash()
			ng, err := Restart(g)
			if err != nil {
				t.Fatal(err)
			}
			if got := ng.InDoubt(); len(got) != 1 || got[0] != remote {
				t.Fatalf("in doubt after restart = %v, want [%v]", got, remote)
			}
			if got := counterValue(t, ng); got != 10 {
				t.Fatalf("counter = %d before the verdict, want 10", got)
			}
			return ng
		}
		unrelated(g, "first")
		g = crashRestart(g)
		unrelated(g, "second")
		g = crashRestart(g)
		if err := g.HandleCommit(remote); err != nil {
			t.Fatal(err)
		}
		if got := counterValue(t, g); got != 15 {
			t.Fatalf("counter = %d after the commit verdict, want 15", got)
		}
	})
}

func TestEarlyPrepareThroughGuardian(t *testing.T) {
	g := mustGuardian(t, 1, core.BackendHybrid)
	c := initCounter(t, g, 0)
	a := g.Begin()
	if err := a.Set(c, value.Int(41)); err != nil {
		t.Fatal(err)
	}
	if err := a.EarlyPrepare(); err != nil {
		t.Fatal(err)
	}
	// Modify again: the early copy is stale and must be re-written.
	if err := a.Set(c, value.Int(42)); err != nil {
		t.Fatal(err)
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	g.Crash()
	g2, err := Restart(g)
	if err != nil {
		t.Fatal(err)
	}
	if got := counterValue(t, g2); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
}

func TestEarlyPrepareUnsupportedBackends(t *testing.T) {
	for _, b := range []core.Backend{core.BackendSimple, core.BackendShadow} {
		g := mustGuardian(t, 1, b)
		c := initCounter(t, g, 0)
		a := g.Begin()
		if err := a.Set(c, value.Int(1)); err != nil {
			t.Fatal(err)
		}
		if err := a.EarlyPrepare(); err == nil {
			t.Fatalf("%v: early prepare accepted", b)
		}
	}
}

func TestHousekeepThroughGuardian(t *testing.T) {
	g := mustGuardian(t, 1, core.BackendHybrid)
	c := initCounter(t, g, 0)
	for i := 0; i < 30; i++ {
		a := g.Begin()
		if err := a.Set(c, value.Int(int64(i))); err != nil {
			t.Fatal(err)
		}
		if err := a.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	before := g.RS().LogBytes()
	stats, err := g.Housekeep(core.HousekeepSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	if stats.NewLogSize >= before {
		t.Fatalf("housekeeping did not shrink: %d -> %d", before, stats.NewLogSize)
	}
	g.Crash()
	g2, err := Restart(g)
	if err != nil {
		t.Fatal(err)
	}
	if got := counterValue(t, g2); got != 29 {
		t.Fatalf("counter = %d, want 29", got)
	}
}

func TestUnknownActionVotesAbort(t *testing.T) {
	g := mustGuardian(t, 1, core.BackendHybrid)
	v, err := g.HandlePrepare(ids.ActionID{Coordinator: 9, Seq: 9})
	if err != nil {
		t.Fatal(err)
	}
	if v != twopc.VoteAborted {
		t.Fatalf("vote = %v, want aborted", v)
	}
}

func TestManyActionsManyObjects(t *testing.T) {
	forBackends(t, func(t *testing.T, b core.Backend) {
		g := mustGuardian(t, 1, b)
		// Build a little directory tree of atomic objects.
		a := g.Begin()
		var leaves []*object.Atomic
		dir := value.NewRecord()
		for i := 0; i < 8; i++ {
			leaf, err := a.NewAtomic(value.Int(0))
			if err != nil {
				t.Fatal(err)
			}
			leaves = append(leaves, leaf)
			dir.Fields[fmt.Sprintf("leaf%d", i)] = value.Ref{Target: leaf}
		}
		dirObj, err := a.NewAtomic(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.SetVar("dir", dirObj); err != nil {
			t.Fatal(err)
		}
		if err := a.Commit(); err != nil {
			t.Fatal(err)
		}
		// Update each leaf in its own action; abort every third.
		for i, leaf := range leaves {
			act := g.Begin()
			if err := act.Set(leaf, value.Int(int64(i+1))); err != nil {
				t.Fatal(err)
			}
			if i%3 == 2 {
				if err := act.Abort(); err != nil {
					t.Fatal(err)
				}
			} else if err := act.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		g.Crash()
		g2, err := Restart(g)
		if err != nil {
			t.Fatal(err)
		}
		rd, ok := g2.VarAtomic("dir")
		if !ok {
			t.Fatal("dir lost")
		}
		rec := rd.Base().(*value.Record)
		for i := 0; i < 8; i++ {
			ref := rec.Fields[fmt.Sprintf("leaf%d", i)].(value.Ref)
			leaf := ref.Target.(*object.Atomic)
			want := int64(i + 1)
			if i%3 == 2 {
				want = 0
			}
			if got := leaf.Base().(value.Int); int64(got) != want {
				t.Fatalf("leaf%d = %d, want %d", i, got, want)
			}
		}
	})
}
