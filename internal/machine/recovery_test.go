package machine

import (
	"testing"

	"revive/internal/arch"
	"revive/internal/core"
	"revive/internal/sim"
)

// runToEpoch runs the machine until the given checkpoint epoch commits,
// then the given extra time into the next interval, and freezes there.
func runToEpoch(t *testing.T, m *Machine, epoch uint64, extra sim.Time) {
	t.Helper()
	var commitTime sim.Time = -1
	base := m.OnCheckpoint
	m.OnCheckpoint = func(e uint64) {
		if base != nil {
			base(e)
		}
		if e == epoch {
			commitTime = m.Engine.Now()
		}
	}
	m.Start()
	m.Engine.RunWhile(func() bool { return commitTime < 0 })
	if commitTime < 0 {
		t.Fatalf("run finished before checkpoint %d", epoch)
	}
	m.Engine.RunUntil(commitTime + extra)
}

// verifyCfg is a 4-node mirrored machine with Verify snapshots.
func verifyCfg() Config {
	cfg := smallConfig(true)
	cfg.Verify = true
	return cfg
}

// recoverAndCheck recovers to target, verifies memory equals the target
// snapshot and parity is consistent, and returns the recovery report.
func recoverAndCheck(t *testing.T, m *Machine, lost arch.NodeID, target uint64) core.Report {
	t.Helper()
	rep, err := m.Recover(lost, target)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if rep.Unavailable() <= 0 {
		t.Fatal("recovery reported zero unavailable time")
	}
	snap, ok := m.SnapshotAt(target)
	if !ok {
		t.Fatalf("no snapshot for epoch %d", target)
	}
	if err := m.VerifyAgainstSnapshot(snap); err != nil {
		t.Fatalf("memory does not match checkpoint %d after recovery: %v", target, err)
	}
	if err := m.VerifyParity(); err != nil {
		t.Fatalf("parity inconsistent after recovery: %v", err)
	}
	return rep
}

func TestTransientErrorRollsBackToLastCheckpoint(t *testing.T) {
	m := New(verifyCfg())
	m.Load(testProfile(200000))
	runToEpoch(t, m, 2, 80*sim.Microsecond)
	m.InjectTransient()
	recoverAndCheck(t, m, -1, 2)
}

func TestTransientErrorRollsBackTwoCheckpoints(t *testing.T) {
	// The paper's experiment: the error occurs just before a checkpoint
	// commits but is detected after; recovery targets the second most
	// recent checkpoint.
	m := New(verifyCfg())
	m.Load(testProfile(300000))
	runToEpoch(t, m, 3, 80*sim.Microsecond)
	m.InjectTransient()
	recoverAndCheck(t, m, -1, 2)
}

func TestNodeLossRecoversMemoryFromParity(t *testing.T) {
	m := New(verifyCfg())
	m.Load(testProfile(200000))
	runToEpoch(t, m, 2, 80*sim.Microsecond)
	m.InjectNodeLoss(1)
	rep, err := m.Recover(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LogPagesRebuilt == 0 {
		t.Fatal("no log pages rebuilt for the lost node")
	}
	snap, _ := m.SnapshotAt(2)
	if err := m.VerifyAgainstSnapshot(snap); err != nil {
		t.Fatalf("lost-node recovery mismatch: %v", err)
	}
	if err := m.VerifyParity(); err != nil {
		t.Fatalf("parity inconsistent after node-loss recovery: %v", err)
	}
}

func TestNodeLoss7Plus1Parity(t *testing.T) {
	if testing.Short() {
		t.Skip("16-node recovery in -short mode")
	}
	cfg := Default(100)
	cfg.Checkpoint.Interval = 60 * sim.Microsecond
	cfg.Checkpoint.InterruptCost = 500
	cfg.Checkpoint.BarrierCost = 1000
	cfg.Verify = true
	m := New(cfg)
	m.Load(testProfile(120000))
	runToEpoch(t, m, 2, 40*sim.Microsecond)
	m.InjectNodeLoss(5)
	recoverAndCheck(t, m, 5, 2)
}

func TestNodeLossOfEveryNode(t *testing.T) {
	// Any single node must be recoverable, including nodes holding logs,
	// parity-heavy frames, and the shared region's home.
	for n := arch.NodeID(0); n < 4; n++ {
		m := New(verifyCfg())
		m.Load(testProfile(120000))
		runToEpoch(t, m, 2, 50*sim.Microsecond)
		m.InjectNodeLoss(n)
		recoverAndCheck(t, m, n, 2)
	}
}

func TestMidFlushErrorRecovers(t *testing.T) {
	// Freeze in the middle of the checkpoint flush window (the
	// checkpoint-commit race of section 4.2: the error hits after some
	// nodes flushed but before the commit markers are written). Recovery
	// must go to the last *committed* checkpoint.
	m := New(verifyCfg())
	m.Load(testProfile(200000))
	var c2 sim.Time = -1
	m.OnCheckpoint = func(e uint64) {
		if e == 2 {
			c2 = m.Engine.Now()
		}
	}
	m.Start()
	m.Engine.RunWhile(func() bool { return c2 < 0 })
	if c2 < 0 {
		t.Fatal("no second checkpoint")
	}
	// The third checkpoint's flush starts one interval after the second
	// one started; freeze shortly after it begins.
	m.Engine.RunUntil(m.Engine.Now() + m.Cfg.Checkpoint.Interval + 5*sim.Microsecond)
	m.InjectTransient()
	recoverAndCheck(t, m, -1, 2)
}

func TestRecoveryTimeGrowsWithLog(t *testing.T) {
	// Figure 12's shape: more logged lines -> longer Phase 3.
	shortRun := New(verifyCfg())
	shortRun.Load(testProfile(150000))
	runToEpoch(t, shortRun, 2, 10*sim.Microsecond)
	shortRun.InjectTransient()
	repShort, err := shortRun.Recover(-1, 2)
	if err != nil {
		t.Fatal(err)
	}

	hot := testProfile(150000)
	hot.ColdFrac = 0.05 // 5x the cold misses -> much bigger log
	longRun := New(verifyCfg())
	longRun.Load(hot)
	runToEpoch(t, longRun, 2, 10*sim.Microsecond)
	longRun.InjectTransient()
	repLong, err := longRun.Recover(-1, 2)
	if err != nil {
		t.Fatal(err)
	}

	if repLong.EntriesRestored <= repShort.EntriesRestored {
		t.Fatalf("bigger workload logged fewer entries: %d vs %d",
			repLong.EntriesRestored, repShort.EntriesRestored)
	}
	if repLong.Phase3 <= repShort.Phase3 {
		t.Fatalf("Phase 3 did not grow with log size: %d vs %d",
			repLong.Phase3, repShort.Phase3)
	}
}

func TestResumeAfterRecoveryRunsToCompletion(t *testing.T) {
	m := New(verifyCfg())
	m.Load(testProfile(150000))
	runToEpoch(t, m, 2, 50*sim.Microsecond)
	m.InjectTransient()
	rep, err := m.Recover(-1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Resume(rep); err != nil {
		t.Fatal(err)
	}
	m.Engine.Run()
	if !m.Done() {
		t.Fatal("machine did not finish after resume")
	}
	if err := m.VerifyParity(); err != nil {
		t.Fatalf("parity broken after resumed run: %v", err)
	}
}

func TestResumeAfterNodeLossRunsToCompletion(t *testing.T) {
	m := New(verifyCfg())
	m.Load(testProfile(150000))
	runToEpoch(t, m, 2, 50*sim.Microsecond)
	m.InjectNodeLoss(2)
	rep, err := m.Recover(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Resume(rep); err != nil {
		t.Fatal(err)
	}
	m.Engine.Run()
	if !m.Done() {
		t.Fatal("machine did not finish after node-loss resume")
	}
	if err := m.VerifyParity(); err != nil {
		t.Fatalf("parity broken after resumed run: %v", err)
	}
}

func TestSecondErrorAfterResumeAlsoRecovers(t *testing.T) {
	// Back-to-back errors: recover, resume, fail again, recover again.
	m := New(verifyCfg())
	m.Load(testProfile(250000))
	runToEpoch(t, m, 2, 50*sim.Microsecond)
	m.InjectTransient()
	rep, err := m.Recover(-1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Resume(rep); err != nil {
		t.Fatal(err)
	}
	// Run until two more checkpoints commit after the rollback.
	target := uint64(4)
	var commits uint64
	m.OnCheckpoint = func(e uint64) {
		commits = e
	}
	m.Engine.RunWhile(func() bool { return commits < target && !m.Done() })
	if commits < target {
		t.Skipf("only reached epoch %d", commits)
	}
	m.Engine.RunUntil(m.Engine.Now() + 30*sim.Microsecond)
	m.InjectNodeLoss(0)
	recoverAndCheck(t, m, 0, target)
}
