package crashtest

import (
	"testing"

	"repro/internal/core"
)

// TestShardSweep crashes the coordinator shard's guardian at every one
// of its device writes during a cross-shard transfer history, recovers
// it, settles the two-shard cluster, and verifies the serial oracle:
// conservation across shards and zero acked-but-lost.
func TestShardSweep(t *testing.T) {
	for _, b := range []core.Backend{core.BackendSimple, core.BackendHybrid, core.BackendShadow} {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			res, err := Sweep(SweepConfig{Topology: Sharded, Backend: b, Steps: 4})
			if err != nil {
				t.Fatal(err)
			}
			// Every crash write plus the counting run.
			if res.Writes == 0 || res.Points != res.Writes+1 {
				t.Fatalf("degenerate cross-shard sweep: %+v", res)
			}
			if res.Recoveries != res.Writes || res.Deepest != 1 {
				t.Fatalf("sweep did not recover every crash point: %+v", res)
			}
		})
	}
}

// TestShardSweepErrorIdentifiesScenario: a sharded SweepError must carry
// the replay coordinates (backend, crash write, interrupted step).
func TestShardSweepErrorIdentifiesScenario(t *testing.T) {
	checkSweepError(t, SweepError{Topology: Sharded, Backend: core.BackendShadow, Crashes: []int{34}, Step: 0, Err: errBoom},
		"sharded", "shadow", "seed=0", "down=none", "crashes=[34]", "step=0", "boom")
}
