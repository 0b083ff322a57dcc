package machine

import (
	"strings"
	"testing"

	"revive/internal/sim"
)

// sixteenNodeCfg is a 16-node 7+1 machine (two parity groups: nodes 0-7
// and 8-15) with Verify snapshots and fast checkpoints.
func sixteenNodeCfg() Config {
	cfg := Default(100)
	cfg.Checkpoint.Interval = 60 * sim.Microsecond
	cfg.Checkpoint.InterruptCost = 500
	cfg.Checkpoint.BarrierCost = 1000
	cfg.Verify = true
	return cfg
}

func TestTwoNodesLostInDifferentGroupsRecover(t *testing.T) {
	// Section 3.1.2's boundary from the other side: one loss per parity
	// group is within the fault model even when two nodes die at once.
	m := New(sixteenNodeCfg())
	m.Load(testProfile(120000))
	runToEpoch(t, m, 2, 40*sim.Microsecond)
	m.Mems[3].MarkLost()  // group 0
	m.Mems[12].MarkLost() // group 1
	m.Freeze()
	if err := m.Recoverable(2); err != nil {
		t.Fatalf("disjoint-group double loss should be recoverable: %v", err)
	}
	rep, err := m.RecoverAll(2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LogPagesRebuilt == 0 {
		t.Fatal("no log pages rebuilt")
	}
	snap, _ := m.SnapshotAt(2)
	if err := m.VerifyAgainstSnapshot(snap); err != nil {
		t.Fatalf("double-loss recovery mismatch: %v", err)
	}
	if err := m.VerifyParity(); err != nil {
		t.Fatalf("parity inconsistent: %v", err)
	}
}

func TestTwoNodesLostInSameGroupIsUnrecoverable(t *testing.T) {
	// Section 3.1.2: two lost memories in one parity group damage the
	// group beyond repair; the machine must report it, not pretend.
	m := New(sixteenNodeCfg())
	m.Load(testProfile(120000))
	runToEpoch(t, m, 2, 40*sim.Microsecond)
	m.Mems[2].MarkLost()
	m.Mems[5].MarkLost() // same group 0
	m.Freeze()
	err := m.Recoverable(2)
	if err == nil {
		t.Fatal("same-group double loss reported recoverable")
	}
	if !strings.Contains(err.Error(), "parity group") {
		t.Fatalf("unhelpful error: %v", err)
	}
	if _, err := m.RecoverAll(2); err == nil {
		t.Fatal("RecoverAll did not refuse")
	}
}

func TestMirroredPairLossIsUnrecoverable(t *testing.T) {
	// Under mirroring the groups are pairs: losing both halves of a pair
	// is fatal, losing one node of two different pairs is fine.
	cfg := verifyCfg() // 4 nodes, GroupSize 2: pairs {0,1} and {2,3}
	m := New(cfg)
	m.Load(testProfile(250000))
	runToEpoch(t, m, 2, 30*sim.Microsecond)
	m.Mems[0].MarkLost()
	m.Mems[1].MarkLost()
	m.Freeze()
	if m.Recoverable(2) == nil {
		t.Fatal("losing a full mirror pair reported recoverable")
	}
}

func TestTwoMirrorPairsEachLoseOne(t *testing.T) {
	cfg := verifyCfg()
	m := New(cfg)
	m.Load(testProfile(250000))
	runToEpoch(t, m, 2, 30*sim.Microsecond)
	m.Mems[1].MarkLost() // pair {0,1}
	m.Mems[2].MarkLost() // pair {2,3}
	m.Freeze()
	rep, err := m.RecoverAll(2)
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := m.SnapshotAt(2)
	if err := m.VerifyAgainstSnapshot(snap); err != nil {
		t.Fatalf("mismatch: %v", err)
	}
	if err := m.VerifyParity(); err != nil {
		t.Fatal(err)
	}
	_ = rep
}

func TestRetentionThreeCheckpointsRollsBackThree(t *testing.T) {
	// Section 3.2.3: longer detection latencies keep more checkpoints
	// recoverable at the cost of log space only.
	cfg := verifyCfg()
	cfg.Checkpoint.Retain = 3
	m := New(cfg)
	m.Load(testProfile(400000))
	runToEpoch(t, m, 4, 50*sim.Microsecond)
	m.InjectTransient()
	// Roll back three checkpoints: target epoch 2 while 4 is committed.
	recoverAndCheck(t, m, -1, 2)
}

func TestRetentionTwoCannotReachThreeBack(t *testing.T) {
	cfg := verifyCfg() // default retain = 2
	m := New(cfg)
	m.Load(testProfile(400000))
	runToEpoch(t, m, 4, 50*sim.Microsecond)
	m.InjectTransient()
	// Epoch 1's snapshot (and its log coverage) is pruned under the
	// two-checkpoint retention.
	if _, ok := m.SnapshotAt(1); ok {
		t.Fatal("epoch-1 snapshot retained despite retain=2")
	}
}

func TestRetentionGrowsLogFootprint(t *testing.T) {
	run := func(retain int) uint64 {
		cfg := verifyCfg()
		cfg.Checkpoint.Retain = retain
		m := New(cfg)
		m.Load(testProfile(300000))
		st := m.Run()
		return st.LogBytesPeak
	}
	two, four := run(2), run(4)
	if four <= two {
		t.Fatalf("retain=4 peak log (%d) not above retain=2 (%d)", four, two)
	}
}
