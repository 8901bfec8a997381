package crashtest

import (
	"fmt"

	"repro/internal/guardian"
	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/replog"
)

// The Replicated topology extends the crash-point sweep across the
// replication boundary: the same scripted history runs on a primary
// whose log is shipped to two backups (quorum 2 of 3), the primary is
// crashed at every device write, and at every crash point — crossed
// with every replica availability pattern that keeps the quorum
// reachable — the best backup is promoted and its takeover recovery is
// verified against the serial oracle. The property under test is the
// package's reason to exist: an acknowledged commit is never lost to a
// primary crash, because acknowledgment waited for a quorum and the
// promoted backup is chosen from the quorum's survivors. An
// acknowledged-but-lost commit surfaces as a takeover state older than
// the interrupted step's pre-state.
//
// The sweep keeps one log generation (no housekeeping in the script):
// within a generation the promotion rule is purely mechanical —
// promote the backup with the most durable bytes — which is exactly
// the rule promoteBest applies. Generation switches (snapshot resets,
// rejoin catch-up) are exercised by the replog unit tests; crossing
// them mid-crash turns promotion into an operator decision the
// deterministic sweep cannot script.

// DownPattern selects which backup of a replicated sweep is
// unreachable for a whole replayed history. Patterns that lose the
// quorum are not swept: a quorum-less history cannot acknowledge,
// which the partition tests cover directly. The other topologies run
// under DownNone only.
type DownPattern uint8

const (
	// DownNone keeps both backups reachable.
	DownNone DownPattern = iota
	// DownFirst partitions the lower-id backup away for the whole
	// history; every ack rides the second.
	DownFirst
	// DownSecond partitions the higher-id backup away.
	DownSecond
)

func (p DownPattern) String() string {
	switch p {
	case DownNone:
		return "none"
	case DownFirst:
		return "first-down"
	case DownSecond:
		return "second-down"
	default:
		return fmt.Sprintf("down(%d)", uint8(p))
	}
}

// repBackupIDs are the sweep's backup addresses; the primary is
// guardian 1, as everywhere in the crash harness.
var repBackupIDs = [2]ids.GuardianID{101, 102}

// repCluster is one scenario's replication fabric.
type repCluster struct {
	net     *netsim.Network
	backups [2]*replog.Backup
}

// newRepCluster builds the network and backups for one replay, marks
// the pattern's backup down, and returns the install hook that wires
// the primary's replicator onto the scripted guardian.
func newRepCluster(cfg SweepConfig, down DownPattern, tr obs.Tracer) (*repCluster, func(*guardian.Guardian) error, error) {
	cl := &repCluster{net: netsim.New()}
	cl.net.SetTracer(tr)
	reps := make([]replog.Replica, 0, len(repBackupIDs))
	for i, id := range repBackupIDs {
		b, err := replog.NewBackup(replog.BackupConfig{
			ID: id, Primary: 1, Backend: cfg.Backend, BlockSize: cfg.BlockSize, Tracer: tr,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("backup %v: %w", id, err)
		}
		cl.backups[i] = b
		reps = append(reps, b)
	}
	switch down {
	case DownFirst:
		cl.net.SetDown(repBackupIDs[0], true)
	case DownSecond:
		cl.net.SetDown(repBackupIDs[1], true)
	}
	install := func(g *guardian.Guardian) error {
		p, err := replog.NewPrimary(replog.Config{
			Self: 1, Site: g.Site(), Quorum: 2, Net: cl.net, Replicas: reps, Tracer: tr,
		})
		if err != nil {
			return err
		}
		g.SetReplicator(p)
		return nil
	}
	return cl, install, nil
}

// promoteBest applies the single-generation operator rule: promote the
// backup holding the most durable bytes (ties to the lower id). The
// quorum guarantee makes this sufficient — every acknowledged prefix
// is durable on at least one backup, and the longest copy subsumes
// every shorter acknowledged one.
func (cl *repCluster) promoteBest() (*guardian.Guardian, error) {
	best := 0
	if cl.backups[1].Status().Durable > cl.backups[0].Status().Durable {
		best = 1
	}
	g, err := recovered(cl.backups[best].Promote())
	if err != nil {
		return nil, err
	}
	if err := resolveInDoubt(g); err != nil {
		return nil, err
	}
	return g, nil
}

// replicatedTopology crashes the primary of a replicated scripted
// history (no mutex, housekeeping or decay — see above). The counting
// run promotes and verifies too: it is the zero-crash corner of the
// matrix.
func replicatedTopology(cfg SweepConfig) *topology {
	script := buildScript(cfg)
	o := buildOracle(script)
	return &topology{
		patterns:      []DownPattern{DownNone, DownFirst, DownSecond},
		countRecovery: true,
		countPoint:    true,
		replay: func(k int, down DownPattern, chk *obs.Checker) (*scenario, error) {
			vol := armedVolume(cfg.BlockSize, k)
			sc := &scenario{vol: vol, step: -1}
			cl, install, err := newRepCluster(cfg, down, chk)
			if err != nil {
				return sc, err
			}
			sc.step, _, err = executeScript(vol, cfg, script, chk, install)
			sc.done = sc.step == len(script)
			var g *guardian.Guardian
			sc.recover = func(int, bool) (bool, error) {
				var err error
				g, err = cl.promoteBest()
				return false, err
			}
			sc.verify = func() error { return verifyRecovered(g, cfg, script, o, sc.step, false) }
			return sc, err
		},
	}
}
