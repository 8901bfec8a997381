package crashtest

import (
	"errors"
	"testing"

	"repro/internal/core"
)

// TestSweepAllBackends runs the exhaustive crash-point sweep — every
// device write of the scripted history, every write of the recovery
// that follows (double crash), and a triple-crash probe at each of
// those — for all three backends.
func TestSweepAllBackends(t *testing.T) {
	for _, b := range []core.Backend{core.BackendSimple, core.BackendHybrid, core.BackendShadow} {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			res, err := Sweep(SweepConfig{Backend: b, Seed: 1, Steps: 3, Mutex: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.Writes == 0 || res.Points <= res.Writes {
				t.Fatalf("degenerate sweep: %+v", res)
			}
			if res.Deepest < 3 {
				t.Fatalf("no triple crash exercised: %+v", res)
			}
		})
	}
}

// TestSweepHousekeeping sweeps a hybrid history that interleaves
// compaction and snapshot passes, so crash points land inside
// housekeeping (including the atomic log switch) too.
func TestSweepHousekeeping(t *testing.T) {
	res, err := Sweep(SweepConfig{
		Backend: core.BackendHybrid, Seed: 3, Steps: 4, Mutex: true, Housekeep: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Writes == 0 {
		t.Fatalf("degenerate sweep: %+v", res)
	}
}

// TestSweepMultipleSeeds varies the scripted history.
func TestSweepMultipleSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep skipped in -short mode")
	}
	for _, b := range []core.Backend{core.BackendSimple, core.BackendHybrid, core.BackendShadow} {
		for seed := int64(1); seed <= 3; seed++ {
			cfg := SweepConfig{Backend: b, Seed: seed, Steps: 4, Mutex: true, Housekeep: seed == 2}
			if _, err := Sweep(cfg); err != nil {
				t.Fatalf("%v seed %d: %v", b, seed, err)
			}
		}
	}
}

// TestSweepErrorIdentifiesScenario: a SweepError must carry the full
// replay coordinates — topology, backend, seed, decay mode, availability
// pattern, crash schedule, and interrupted step — for roscrash to print,
// and unwrap to the underlying failure. TestRepSweepErrorIdentifiesScenario
// and TestShardSweepErrorIdentifiesScenario check the other topologies.
func TestSweepErrorIdentifiesScenario(t *testing.T) {
	checkSweepError(t, SweepError{Topology: Single, Backend: core.BackendHybrid, Seed: 42, Decay: DecayAlternate,
		Crashes: []int{17, 3, 1}, Step: 2, Err: errBoom},
		"single", "hybrid", "seed=42", "decay=alternate", "down=none", "crashes=[17 3 1]", "step=2", "boom")
}

var errBoom = errors.New("boom")

// checkSweepError fails t unless e's text holds every want and e
// unwraps to errBoom.
func checkSweepError(t *testing.T, e SweepError, want ...string) {
	t.Helper()
	got := e.Error()
	for _, w := range want {
		if !contains(got, w) {
			t.Errorf("SweepError %q missing %q", got, w)
		}
	}
	if !errors.Is(&e, errBoom) {
		t.Errorf("%v SweepError does not unwrap", e.Topology)
	}
}

// TestSweepRejectsConfig: a topology refuses up front the settings it
// cannot sweep, with a plain error rather than a scenario failure.
func TestSweepRejectsConfig(t *testing.T) {
	for _, cfg := range []SweepConfig{
		{Topology: Replicated, Seed: 1, Steps: 2, Mutex: true},
		{Topology: Replicated, Seed: 1, Steps: 2, Housekeep: true},
		{Topology: Replicated, Seed: 1, Steps: 2, Decay: DecayDeviceA},
		{Topology: Replicated, Backend: core.BackendShadow, Seed: 1, Steps: 2},
		{Topology: Sharded, Seed: 1, Steps: 2},
		{Topology: Sharded, Steps: 2, Mutex: true},
		{Topology: Sharded, Steps: 2, Housekeep: true},
		{Topology: Sharded, Steps: 2, Decay: DecayDeviceB},
		{Topology: Sharded, Steps: 0},
		{Topology: Sharded, Steps: 17},
		{Topology: Sharded + 1, Steps: 2},
	} {
		res, err := Sweep(cfg)
		var se *SweepError
		if err == nil || errors.As(err, &se) || res != (SweepResult{}) {
			t.Errorf("%+v: got %+v, %v; want a plain config error and no work", cfg, res, err)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
