// Command roscrash runs the crash-injection harnesses as a soak test:
// randomized action histories with device-level crashes at arbitrary
// write counts, recovery after each, checked against a serial oracle
// (the thesis's chapter 6 correctness property), plus a distributed
// mode where guardians exchange funds under two-phase commit while
// nodes crash (money conservation).
//
// With -sweep it instead runs the exhaustive crash-point sweep
// (crashtest.Sweep) over every topology. The single-guardian topology
// crashes a scripted history at every device write, every write of the
// recovery that follows, and once more inside the second recovery
// (triple crash), with single-copy decay injected between crash and
// recovery, per seed and decay mode. The replicated topology crashes a
// primary shipping its log to two backups at every write under each
// backup-availability pattern and verifies the promoted backup, per
// seed (simple and hybrid backends). The sharded topology crashes the
// coordinator shard of a fixed cross-shard transfer history, once per
// backend. Every point is verified against a serial oracle; on failure
// roscrash prints the exact replay coordinates (topology, backend,
// seed, decay, down pattern, crash schedule) and exits non-zero.
//
// Usage:
//
//	roscrash [-mode single|distributed|both] [-backend simple|hybrid|shadow|all]
//	         [-steps 500] [-seeds 10] [-crash-every 5] [-housekeep-every 20]
//	roscrash -sweep [-backend ...] [-seeds 10] [-sweep-steps 4]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/crashtest"
)

var (
	mode       = flag.String("mode", "both", "single, distributed, or both")
	backend    = flag.String("backend", "all", "simple, hybrid, shadow, or all")
	steps      = flag.Int("steps", 500, "actions per run")
	seeds      = flag.Int("seeds", 10, "number of seeds per configuration")
	crashEvery = flag.Int("crash-every", 5, "~1/n actions interrupted by a crash")
	hkEvery    = flag.Int("housekeep-every", 20, "housekeeping interval (hybrid only; 0 disables)")
	guardians  = flag.Int("guardians", 4, "guardians in distributed mode")
	sweep      = flag.Bool("sweep", false, "run the exhaustive crash-point sweep instead of the randomized soak")
	sweepSteps = flag.Int("sweep-steps", 4, "scripted actions per sweep history")
)

func main() {
	flag.Parse()
	backends := map[string][]core.Backend{
		"simple": {core.BackendSimple},
		"hybrid": {core.BackendHybrid},
		"shadow": {core.BackendShadow},
		"all":    {core.BackendSimple, core.BackendHybrid, core.BackendShadow},
	}[*backend]
	if backends == nil {
		fmt.Fprintf(os.Stderr, "roscrash: unknown backend %q\n", *backend)
		os.Exit(2)
	}
	failed := false
	for _, b := range backends {
		if *sweep {
			failed = runSweep(b) || failed
			continue
		}
		if *mode == "single" || *mode == "both" {
			failed = runSingle(b) || failed
		}
		if *mode == "distributed" || *mode == "both" {
			failed = runDistributed(b) || failed
		}
	}
	if failed {
		os.Exit(1)
	}
	fmt.Println("all runs passed")
}

func runSingle(b core.Backend) (failed bool) {
	for seed := int64(1); seed <= int64(*seeds); seed++ {
		cfg := crashtest.Config{
			Backend:    b,
			Counters:   6,
			Steps:      *steps,
			Seed:       seed,
			CrashEvery: *crashEvery,
			Mutex:      true,
		}
		if b == core.BackendHybrid {
			cfg.HousekeepEvery = *hkEvery
		}
		start := time.Now()
		res, err := crashtest.Run(cfg)
		if err != nil {
			fmt.Printf("FAIL single %-7v seed=%-3d %v\n", b, seed, err)
			failed = true
			continue
		}
		fmt.Printf("ok   single %-7v seed=%-3d committed=%d aborted=%d crashes=%d recoveries=%d (%.2fs)\n",
			b, seed, res.Committed, res.Aborted, res.Crashes, res.Recoveries,
			time.Since(start).Seconds())
	}
	return failed
}

// runSweep exhausts every crash point of each topology's history: the
// single-guardian topology per seed and decay mode, the replicated one
// per seed, and the sharded one (whose history has no seed) once. A
// failure prints the exact replay coordinates so the scenario can be
// rerun alone.
func runSweep(b core.Backend) (failed bool) {
	var cfgs []crashtest.SweepConfig
	decays := []crashtest.DecayMode{
		crashtest.DecayNone, crashtest.DecayDeviceA,
		crashtest.DecayDeviceB, crashtest.DecayAlternate,
	}
	for seed := int64(1); seed <= int64(*seeds); seed++ {
		for _, d := range decays {
			cfgs = append(cfgs, crashtest.SweepConfig{
				Backend:   b,
				Seed:      seed,
				Steps:     *sweepSteps,
				Mutex:     true,
				Decay:     d,
				Housekeep: b == core.BackendHybrid,
			})
		}
	}
	if b != core.BackendShadow { // shadowing has no log to replicate
		for seed := int64(1); seed <= int64(*seeds); seed++ {
			cfgs = append(cfgs, crashtest.SweepConfig{
				Topology: crashtest.Replicated, Backend: b, Seed: seed, Steps: *sweepSteps,
			})
		}
	}
	cfgs = append(cfgs, crashtest.SweepConfig{Topology: crashtest.Sharded, Backend: b, Steps: *sweepSteps})
	for _, cfg := range cfgs {
		start := time.Now()
		res, err := crashtest.Sweep(cfg)
		if err != nil {
			fmt.Printf("FAIL sweep  %-10v %-7v seed=%-3d decay=%-9v %v\n", cfg.Topology, b, cfg.Seed, cfg.Decay, err)
			failed = true
			continue
		}
		fmt.Printf("ok   sweep  %-10v %-7v seed=%-3d decay=%-9v writes=%d points=%d recoveries=%d deepest=%d (%.2fs)\n",
			cfg.Topology, b, cfg.Seed, cfg.Decay, res.Writes, res.Points, res.Recoveries, res.Deepest,
			time.Since(start).Seconds())
	}
	return failed
}

func runDistributed(b core.Backend) (failed bool) {
	for seed := int64(1); seed <= int64(*seeds); seed++ {
		cfg := crashtest.DistributedConfig{
			Backend:        b,
			Guardians:      *guardians,
			Steps:          *steps,
			Seed:           seed,
			CrashEvery:     *crashEvery,
			InitialBalance: 10_000,
		}
		if b == core.BackendHybrid {
			cfg.HousekeepEvery = *hkEvery
		}
		start := time.Now()
		res, err := crashtest.RunDistributed(cfg)
		if err != nil {
			fmt.Printf("FAIL dist   %-7v seed=%-3d %v\n", b, seed, err)
			failed = true
			continue
		}
		fmt.Printf("ok   dist   %-7v seed=%-3d committed=%d aborted=%d crashes=%d queries=%d (%.2fs)\n",
			b, seed, res.Committed, res.Aborted, res.Crashes, res.Queries,
			time.Since(start).Seconds())
	}
	return failed
}
