package crashtest

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stablelog"
)

// traceConfigs are the sweep configurations whose event streams the
// determinism tests pin down: one per backend, plus the full hybrid
// feature set (mutex, housekeeping interleaved).
func traceConfigs() []SweepConfig {
	return []SweepConfig{
		{Backend: core.BackendSimple, Seed: 7, Steps: 4},
		{Backend: core.BackendHybrid, Seed: 7, Steps: 4, Mutex: true, Housekeep: true},
		{Backend: core.BackendShadow, Seed: 7, Steps: 4},
	}
}

// runTraced replays the scripted history, crashing at write k (0 for an
// undisturbed run), recovers if the crash fired, and returns the full
// event trace.
func runTraced(t *testing.T, cfg SweepConfig, script []scriptStep, k int) []byte {
	t.Helper()
	rec := &obs.Recorder{}
	vol := stablelog.NewMemVolume(cfg.BlockSize)
	vol.ArmGlobalCrashAtWrite(k)
	s, _, err := executeScript(vol, cfg, script, rec, nil)
	if err != nil {
		t.Fatalf("history (crash at %d): %v", k, err)
	}
	if s != len(script) {
		if _, fired, _, err := recoverOnce(vol, cfg, 0, true, rec); err != nil {
			t.Fatalf("recovery (crash at %d): %v", k, err)
		} else if fired {
			t.Fatalf("unarmed recovery reported a crash (crash at %d)", k)
		}
	}
	return rec.Text()
}

// TestReplayTraceDeterministic runs the same scripted history — and the
// recovery after a crash at several write indices — twice, and requires
// the two event traces to be byte-identical. This is the determinism
// contract the crash sweep's exhaustiveness rests on: if two replays of
// one schedule could diverge, crash point k would not name a unique
// protocol state.
func TestReplayTraceDeterministic(t *testing.T) {
	for _, cfg := range traceConfigs() {
		cfg := cfg
		cfg.BlockSize = 512
		t.Run(cfg.Backend.String(), func(t *testing.T) {
			script := buildScript(cfg)

			// The undisturbed run fixes W, the total write count.
			first := runTraced(t, cfg, script, 0)
			if !bytes.Equal(first, runTraced(t, cfg, script, 0)) {
				t.Fatal("two undisturbed runs produced different traces")
			}
			vol := stablelog.NewMemVolume(cfg.BlockSize)
			vol.ArmGlobalCrashAtWrite(0)
			if _, _, err := executeScript(vol, cfg, script, nil, nil); err != nil {
				t.Fatal(err)
			}
			w := vol.GlobalWrites()

			for _, k := range []int{1, w / 3, w / 2, w - 1} {
				if k < 1 {
					continue
				}
				t.Run(fmt.Sprintf("crash-at-%d", k), func(t *testing.T) {
					a := runTraced(t, cfg, script, k)
					b := runTraced(t, cfg, script, k)
					if !bytes.Equal(a, b) {
						t.Errorf("two crash-at-%d replays produced different traces (%d vs %d bytes)",
							k, len(a), len(b))
					}
				})
			}
		})
	}
}

// TestSweepDeterministic runs a small full sweep of every topology
// twice and requires the aggregate results — write count, scenario
// count, recovery count, depth — to be identical, the sweep-level
// expression of the same contract.
func TestSweepDeterministic(t *testing.T) {
	for _, cfg := range []SweepConfig{
		{Topology: Single, Backend: core.BackendHybrid, Seed: 11, Steps: 3, Housekeep: true},
		{Topology: Replicated, Backend: core.BackendHybrid, Seed: 11, Steps: 3},
		{Topology: Sharded, Backend: core.BackendSimple, Steps: 3},
	} {
		a, err := Sweep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Sweep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%v: two sweeps diverged: %+v vs %+v", cfg.Topology, a, b)
		}
	}
}
