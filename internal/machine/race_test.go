package machine

import (
	"testing"

	"revive/internal/arch"
	"revive/internal/core"
	"revive/internal/sim"
)

// The five race-condition classes of section 4.2, tested by injecting a
// fail-stop error at exactly the vulnerable step of the log/parity/data
// update sequence (via the controller's StepHook) and verifying that
// recovery still restores the checkpoint image byte for byte.

// raceRig runs a verified machine to checkpoint 2, then arms a one-shot
// step-hook on every controller that freezes the machine at the first
// occurrence of the wanted step strictly after arming.
type raceRig struct {
	m     *Machine
	fired bool
	// node where the step fired, for choosing which node to lose.
	firedNode arch.NodeID
	firedLine arch.LineAddr
}

func newRaceRig(t *testing.T, want core.Step) *raceRig {
	t.Helper()
	return newStrategyRaceRig(t, core.DefaultStrategy, want)
}

// newStrategyRaceRig is newRaceRig on a machine running the named
// recovery-strategy backend.
func newStrategyRaceRig(t *testing.T, strategy string, want core.Step) *raceRig {
	t.Helper()
	cfg := verifyCfg()
	cfg.Strategy = strategy
	m := New(cfg)
	m.Load(testProfile(250000))
	runToEpoch(t, m, 2, 0)
	r := &raceRig{m: m}
	for _, ctrl := range m.Ctrls {
		ctrl := ctrl
		ctrl.StepHook = func(s core.Step, line arch.LineAddr) {
			if r.fired || s != want {
				return
			}
			r.fired = true
			r.firedNode = ctrl.Node()
			r.firedLine = line
			m.InjectTransient() // freeze; caller may additionally lose a node
		}
	}
	// Run until the hook fires (the freeze empties the event queue).
	m.Engine.RunWhile(func() bool { return !r.fired })
	if !r.fired {
		t.Skipf("step %v never occurred after checkpoint 2", want)
	}
	for _, ctrl := range m.Ctrls {
		ctrl.StepHook = nil
	}
	return r
}

func (r *raceRig) loseFiredNode(t *testing.T) {
	t.Helper()
	r.m.Mems[r.firedNode].MarkLost()
}

func (r *raceRig) loseParityNodeOf(t *testing.T, line arch.LineAddr) arch.NodeID {
	t.Helper()
	phys, ok := r.m.AMap.LookupLine(line)
	if !ok {
		t.Fatal("fired line unmapped")
	}
	pn := r.m.Topo.ParityOf(phys).Node
	r.m.Mems[pn].MarkLost()
	return pn
}

// Race 1 — Log-Data Update Race: error after the log entry is written but
// before the data write. The data (and its parity) are untouched, so the
// checkpoint content is still in memory; recovery must be a no-op for that
// line.
func TestRaceLogDataUpdate(t *testing.T) {
	r := newRaceRig(t, core.StepLogDataWritten)
	recoverAndCheck(t, r.m, -1, 2)
}

// Race 1b — same point, but the node holding the half-written log entry is
// permanently lost. The rebuilt entry has no valid marker and is skipped.
func TestRaceLogDataUpdateWithNodeLoss(t *testing.T) {
	r := newRaceRig(t, core.StepLogDataWritten)
	r.loseFiredNode(t)
	recoverAndCheck(t, r.m, r.firedNode, 2)
}

// Race 2 — Atomic Log Update Race: error between the entry write and the
// Marker validation. The marker-less entry must be ignored by recovery.
func TestRaceAtomicLogUpdate(t *testing.T) {
	r := newRaceRig(t, core.StepLogMarkerWritten)
	rep, err := r.m.Recover(-1, 2)
	if err != nil {
		t.Fatal(err)
	}
	_ = rep
	snap, _ := r.m.SnapshotAt(2)
	if err := r.m.VerifyAgainstSnapshot(snap); err != nil {
		t.Fatalf("post-recovery mismatch: %v", err)
	}
	if err := r.m.VerifyParity(); err != nil {
		t.Fatalf("parity inconsistent: %v", err)
	}
}

// Race 3 — Log-Parity Update Race: error after the entry (with marker) is
// in memory but before its parity is applied, losing the log's home node.
// The slot rebuilds to its *old* content, which has no valid marker for the
// current epoch, so it is not used; the data memory still holds the
// checkpoint content.
func TestRaceLogParityUpdateLostLogHome(t *testing.T) {
	r := newRaceRig(t, core.StepLogParityApplied)
	// The step fired at the *parity* node as the update was applied; the
	// vulnerable node is the log's home — the controller that logged the
	// line. Freeze happened just after application; to exercise the
	// pre-application window, lose the parity node instead (the applied
	// update dies with it).
	pn := r.loseParityNodeOf(t, r.firedLine)
	recoverAndCheck(t, r.m, pn, 2)
}

// Race 4 — Data-Parity Update Race: error after D' reaches memory but
// before the data parity applies, losing D's home node. The stale parity
// rebuilds the pre-write content, and the log entry (fully written before
// the data write, by the log-data ordering) restores the checkpoint value.
func TestRaceDataParityUpdate(t *testing.T) {
	r := newRaceRig(t, core.StepDataWritten)
	r.loseFiredNode(t)
	recoverAndCheck(t, r.m, r.firedNode, 2)
}

// Race 4b — same point without node loss: reconciliation settles the
// in-flight parity delta and rollback restores the checkpoint image.
func TestRaceDataParityUpdateTransient(t *testing.T) {
	r := newRaceRig(t, core.StepDataWritten)
	recoverAndCheck(t, r.m, -1, 2)
}

// Race 5 — Checkpoint Commit Race: error in the middle of the two-phase
// commit, after some nodes wrote their epoch-3 markers and others did not.
// Recovery must target the last fully committed checkpoint (epoch 2).
func TestRaceCheckpointCommit(t *testing.T) {
	m := New(verifyCfg())
	m.Load(testProfile(250000))
	runToEpoch(t, m, 2, 0)
	// Arm a hook that freezes at the first checkpoint-marker parity
	// application of the *next* commit (markers log with line 0).
	fired := false
	for _, ctrl := range m.Ctrls {
		ctrl.StepHook = func(s core.Step, line arch.LineAddr) {
			if fired || s != core.StepLogMarkerParityApplied || line != 0 {
				return
			}
			fired = true
			m.InjectTransient()
		}
	}
	m.Engine.RunWhile(func() bool { return !fired })
	if !fired {
		t.Skip("no commit-marker write observed")
	}
	for _, ctrl := range m.Ctrls {
		ctrl.StepHook = nil
	}
	recoverAndCheck(t, m, -1, 2)
}

// sweepStrategies are the backends that run the section 4.2 log and data
// write sequence (inline-log on its overflow path).
var sweepStrategies = []string{core.DefaultStrategy, "inline-log"}

// Sweep: for every step of the sequence, a transient freeze at that step
// must be recoverable. This is the exhaustive version of races 1-4. The
// resumed machine must then run to completion with every invariant
// intact: a pooled protocol record abandoned at the freeze and reused
// while a stale event still held it would break one of them (DESIGN §4i).
func TestRaceSweepAllSteps(t *testing.T) {
	for _, s := range core.Steps() {
		t.Run(s.String(), func(t *testing.T) {
			for _, strategy := range sweepStrategies {
				t.Run(strategy, func(t *testing.T) {
					r := newStrategyRaceRig(t, strategy, s)
					rep := recoverAndCheck(t, r.m, -1, 2)
					resumeAndVerify(t, r.m, rep)
				})
			}
		})
	}
}

// Sweep with node loss: freeze at every step, lose the node where it
// fired, recover, and resume to completion.
func TestRaceSweepAllStepsWithNodeLoss(t *testing.T) {
	for _, s := range core.Steps() {
		t.Run(s.String(), func(t *testing.T) {
			for _, strategy := range sweepStrategies {
				t.Run(strategy, func(t *testing.T) {
					r := newStrategyRaceRig(t, strategy, s)
					r.loseFiredNode(t)
					rep := recoverAndCheck(t, r.m, r.firedNode, 2)
					resumeAndVerify(t, r.m, rep)
				})
			}
		})
	}
}

// resumeAndVerify resumes a recovered machine, runs it to completion and
// checks every machine-wide invariant at the final quiescent point.
func resumeAndVerify(t *testing.T, m *Machine, rep core.Report) {
	t.Helper()
	if err := m.Resume(rep); err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	m.Engine.Run()
	if !m.Done() {
		t.Fatal("machine did not finish after resume")
	}
	for _, v := range []struct {
		name  string
		check func() error
	}{
		{"parity", m.VerifyParity},
		{"log", m.VerifyLog},
		{"L bits", m.VerifyLBits},
		{"coherence", m.VerifyCoherence},
		{"transport", m.VerifyTransport},
	} {
		if err := v.check(); err != nil {
			t.Fatalf("%s invariant broken after the resumed run: %v", v.name, err)
		}
	}
}

// A randomized variant: freeze at arbitrary times mid-interval and recover;
// run several offsets to cover many in-flight configurations.
func TestRaceRandomFreezePoints(t *testing.T) {
	for _, offset := range []sim.Time{3, 1111, 7777, 23456, 55555, 99999, 131313} {
		m := New(verifyCfg())
		m.Load(testProfile(250000))
		runToEpoch(t, m, 2, offset%m.Cfg.Checkpoint.Interval)
		m.InjectTransient()
		recoverAndCheck(t, m, -1, 2)
	}
}

// Same, with node loss rotating over nodes.
func TestRaceRandomFreezePointsNodeLoss(t *testing.T) {
	for i, offset := range []sim.Time{5, 2222, 14142, 60000, 123123} {
		m := New(verifyCfg())
		m.Load(testProfile(250000))
		runToEpoch(t, m, 2, offset%m.Cfg.Checkpoint.Interval)
		lost := arch.NodeID(i % m.Cfg.Nodes)
		m.InjectNodeLoss(lost)
		recoverAndCheck(t, m, lost, 2)
	}
}
