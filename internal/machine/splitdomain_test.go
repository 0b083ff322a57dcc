package machine

import (
	"errors"
	"reflect"
	"testing"

	"revive/internal/arch"
	"revive/internal/core"
	"revive/internal/sim"
)

// Split-fault-domain coverage: cpu-loss (processor dies, memory survives),
// partial memory loss (a frame range of one node dies, the processor
// survives), the degradation ladder between them and full node loss, and
// the retention edge cases each introduces.

func TestCPULossSkipsReconstruction(t *testing.T) {
	// The tentpole invariant: a cpu-loss leaves the node's memory,
	// directory and log intact, so recovery must skip Phase 2 entirely —
	// zero frames rebuilt, zero phase-2 time — and still end byte-exact
	// at the target checkpoint.
	m := New(sixteenNodeCfg())
	m.Load(testProfile(120000))
	runToEpoch(t, m, 2, 40*sim.Microsecond)
	m.InjectCPULoss(5)
	if got := m.CPULostNodes(); !reflect.DeepEqual(got, []arch.NodeID{5}) {
		t.Fatalf("CPULostNodes = %v, want [5]", got)
	}
	if got := m.LostNodes(); got != nil {
		t.Fatalf("cpu-loss marked memory lost: LostNodes = %v", got)
	}
	rep, err := m.Recover(-1, 2)
	if err != nil {
		t.Fatalf("cpu-loss recovery: %v", err)
	}
	if rep.Phase2 != 0 || rep.LogPagesRebuilt != 0 {
		t.Fatalf("cpu-loss with intact log ran Phase 2: p2=%dns pages=%d",
			rep.Phase2, rep.LogPagesRebuilt)
	}
	if rep.FramesReconstructed != 0 {
		t.Fatalf("cpu-loss reconstructed %d frames from parity", rep.FramesReconstructed)
	}
	if rep.FramesSkipped == 0 {
		t.Fatal("cpu-loss reported no skipped frames; the scope accounting is vacuous")
	}
	if rep.Phase3 <= 0 {
		t.Fatal("rollback from the surviving log reported zero Phase 3")
	}
	snap, ok := m.SnapshotAt(2)
	if !ok {
		t.Fatal("no snapshot for epoch 2")
	}
	if err := m.VerifyAgainstSnapshot(snap); err != nil {
		t.Fatalf("post-recovery memory not byte-identical to the checkpoint: %v", err)
	}
	if err := m.VerifyParity(); err != nil {
		t.Fatalf("parity inconsistent after cpu-loss recovery: %v", err)
	}
	if len(m.CPULostNodes()) != 0 {
		t.Fatal("cpu-lost mark not cleared by recovery (the processor was replaced)")
	}
}

func TestMemPartialLossRebuildsOnlyDamagedRange(t *testing.T) {
	m := New(sixteenNodeCfg())
	m.Load(testProfile(120000))
	runToEpoch(t, m, 2, 40*sim.Microsecond)
	const frames = 4
	m.InjectMemPartialLoss(3, 1, frames)
	if got := m.LostNodes(); got != nil {
		t.Fatalf("partial loss marked the whole node lost: LostNodes = %v", got)
	}
	ds := m.DamageSet()
	if len(ds) != 1 || ds[0].Kind != core.PartialLoss || ds[0].Node != 3 ||
		ds[0].FrameLo != 1 || ds[0].Frames != frames {
		t.Fatalf("DamageSet = %+v, want one PartialLoss on node 3 frames [1,5)", ds)
	}
	rep, err := m.Recover(-1, 2)
	if err != nil {
		t.Fatalf("partial-loss recovery: %v", err)
	}
	if rep.FramesReconstructed == 0 || rep.FramesReconstructed > frames {
		t.Fatalf("rebuilt %d frames, want 1..%d (only the damaged range)",
			rep.FramesReconstructed, frames)
	}
	if rep.FramesSkipped == 0 {
		t.Fatal("partial loss skipped no frames; the surviving range was rebuilt anyway")
	}
	snap, _ := m.SnapshotAt(2)
	if err := m.VerifyAgainstSnapshot(snap); err != nil {
		t.Fatalf("post-recovery memory not byte-identical: %v", err)
	}
	if err := m.VerifyParity(); err != nil {
		t.Fatalf("parity inconsistent: %v", err)
	}
	if m.Mems[3].PartialLost() {
		t.Fatal("partial-loss mark survived recovery")
	}
}

func TestCPULossEscalatesToFullNodeLoss(t *testing.T) {
	// The degradation ladder: a cpu-loss whose surviving memory module
	// then dies mid-recovery escalates to a full node loss via the
	// restart path, and the restarted recovery rebuilds the log it
	// initially trusted.
	if testing.Short() {
		t.Skip("16-node double-fault recovery in -short mode")
	}
	m := New(sixteenNodeCfg())
	m.Load(testProfile(120000))
	runToEpoch(t, m, 2, 40*sim.Microsecond)
	m.InjectCPULoss(5)
	fired := false
	m.OnRecoveryPhase = func(p int) {
		if p == 3 && !fired {
			fired = true
			m.Mems[5].MarkLost() // the memory half of the split domain dies too
		}
	}
	rep, err := m.Recover(-1, 2)
	if err != nil {
		t.Fatalf("escalated recovery: %v", err)
	}
	if !fired {
		t.Fatal("phase hook never fired")
	}
	if rep.LogPagesRebuilt == 0 || rep.FramesReconstructed == 0 {
		t.Fatalf("escalation did not rebuild the dead node: pages=%d frames=%d",
			rep.LogPagesRebuilt, rep.FramesReconstructed)
	}
	snap, _ := m.SnapshotAt(2)
	if err := m.VerifyAgainstSnapshot(snap); err != nil {
		t.Fatalf("escalated recovery not byte-exact: %v", err)
	}
	if err := m.VerifyParity(); err != nil {
		t.Fatal(err)
	}
	hist := m.Stats.RecoveryHistory
	if len(hist) != 1 || !reflect.DeepEqual(hist[0].Lost, []int{5}) {
		t.Fatalf("history = %+v, want one record losing node 5", hist)
	}
}

func TestPartialPlusFullLossSameGroupRefused(t *testing.T) {
	// A partial loss consumes its parity group's single-loss budget like a
	// full loss does: its stripes are already degraded, so a second memory
	// loss in the group is beyond the fault model.
	m := New(sixteenNodeCfg())
	m.Load(testProfile(120000))
	runToEpoch(t, m, 2, 40*sim.Microsecond)
	m.MarkMemPartialLost(2, 0, 3) // group 0
	m.Mems[5].MarkLost()          // also group 0
	m.Freeze()
	err := m.Recoverable(2)
	if !errors.Is(err, core.ErrUnrecoverable) {
		t.Fatalf("partial + full loss in one group: err = %v, want ErrUnrecoverable", err)
	}
	if _, err := m.RecoverAll(2); !errors.Is(err, core.ErrUnrecoverable) {
		t.Fatalf("RecoverAll did not refuse: %v", err)
	}
}

func TestRetentionCPULossCountsSurvivingMarkers(t *testing.T) {
	// Satellite: pre-validation must treat a cpu-lost node's log as a
	// survivor. Its markers are readable and count toward retention — the
	// node is NOT in the lost set — so the target stays recoverable without
	// any Phase 2 rebuild.
	m := New(sixteenNodeCfg())
	m.Load(testProfile(120000))
	runToEpoch(t, m, 2, 40*sim.Microsecond)
	m.InjectCPULoss(5)
	if err := m.Recoverable(2); err != nil {
		t.Fatalf("cpu-loss flagged the surviving log's retention: %v", err)
	}
	// The aged-out edge still surfaces as a typed retention error, not as
	// a recovery-time failure.
	_, err := m.Recover(-1, 99)
	var re *RetentionError
	if !errors.As(err, &re) {
		t.Fatalf("uncommitted target: err = %v, want *RetentionError", err)
	}
}

func TestRetentionPartialLossOverLogFramesStillRecoverable(t *testing.T) {
	// A partial loss that eats the node's own log frames makes the markers
	// unreadable; pre-validation must not charge that against retention —
	// Phase 2 rebuilds the damaged log pages from parity first.
	m := New(sixteenNodeCfg())
	m.Load(testProfile(120000))
	runToEpoch(t, m, 2, 40*sim.Microsecond)
	logFrames := m.Ctrls[3].Log().Frames()
	if len(logFrames) == 0 {
		t.Fatal("node 3 holds no log frames; pick another victim")
	}
	m.InjectMemPartialLoss(3, logFrames[0], 1)
	if err := m.Recoverable(2); err != nil {
		t.Fatalf("damaged log range counted against retention: %v", err)
	}
	rep, err := m.Recover(-1, 2)
	if err != nil {
		t.Fatalf("recovery with a damaged log range: %v", err)
	}
	if rep.LogPagesRebuilt == 0 {
		t.Fatal("damaged log frame was never rebuilt from parity")
	}
	snap, _ := m.SnapshotAt(2)
	if err := m.VerifyAgainstSnapshot(snap); err != nil {
		t.Fatalf("not byte-exact: %v", err)
	}
	if err := m.VerifyParity(); err != nil {
		t.Fatal(err)
	}
}

func TestLostNodesSortedByNodeID(t *testing.T) {
	// Satellite: recovery work scheduling and reports iterate LostNodes and
	// DamageSet; both orders are pinned to ascending NodeID regardless of
	// the marking sequence.
	m := New(sixteenNodeCfg())
	m.Load(testProfile(1000))
	for _, n := range []arch.NodeID{12, 3, 7} {
		m.Mems[n].MarkLost()
	}
	m.MarkCPULost(9)
	m.MarkMemPartialLost(1, 0, 2)
	if got, want := m.LostNodes(), []arch.NodeID{3, 7, 12}; !reflect.DeepEqual(got, want) {
		t.Fatalf("LostNodes = %v, want %v", got, want)
	}
	var order []arch.NodeID
	for _, d := range m.DamageSet() {
		order = append(order, d.Node)
	}
	if want := []arch.NodeID{1, 3, 7, 9, 12}; !reflect.DeepEqual(order, want) {
		t.Fatalf("DamageSet order = %v, want %v", order, want)
	}
}
