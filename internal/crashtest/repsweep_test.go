package crashtest

import (
	"testing"

	"repro/internal/core"
)

// TestRepSweep crashes the replicated primary at every device write,
// crossed with every quorum-preserving replica availability pattern,
// promotes the best backup at each point, and verifies the takeover
// against the serial oracle: no acknowledged commit is ever lost.
func TestRepSweep(t *testing.T) {
	for _, b := range []core.Backend{core.BackendSimple, core.BackendHybrid} {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			res, err := Sweep(SweepConfig{Topology: Replicated, Backend: b, Seed: 1, Steps: 3})
			if err != nil {
				t.Fatal(err)
			}
			// Every (crash write × pattern) plus the zero-crash corner.
			want := 3*res.Writes + 1
			if res.Writes == 0 || res.Points != want {
				t.Fatalf("degenerate replicated sweep: %+v, want %d points", res, want)
			}
			if res.Recoveries != res.Points || res.Deepest != 1 {
				t.Fatalf("unverified takeovers: %+v", res)
			}
		})
	}
}

// TestRepSweepMultipleSeeds varies the replicated history.
func TestRepSweepMultipleSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed replicated sweep skipped in -short mode")
	}
	for seed := int64(1); seed <= 3; seed++ {
		if _, err := Sweep(SweepConfig{Topology: Replicated, Backend: core.BackendHybrid, Seed: seed, Steps: 4}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestRepSweepErrorIdentifiesScenario: a replicated SweepError must carry
// the replay coordinates (backend, seed, pattern, crash write, step).
func TestRepSweepErrorIdentifiesScenario(t *testing.T) {
	checkSweepError(t, SweepError{Topology: Replicated, Backend: core.BackendSimple, Seed: 7, Down: DownSecond,
		Crashes: []int{23}, Step: 1, Err: errBoom},
		"replicated", "simple", "seed=7", "decay=none", "down=second-down", "crashes=[23]", "step=1", "boom")
}
