package machine

import (
	"fmt"
	"testing"

	"revive/internal/arch"
	"revive/internal/core"
	"revive/internal/sim"
)

func TestScheduledTransientDetectAndRecover(t *testing.T) {
	m := New(verifyCfg())
	m.Load(testProfile(250000))
	var rep DetectionReport
	fired := false
	// Error mid-run, detected 80 us later (about half an interval).
	m.ScheduleTransientError(400*sim.Microsecond, 80*sim.Microsecond, func(r DetectionReport) {
		rep = r
		fired = true
	})
	st := m.Run()
	if !fired {
		t.Fatal("detection never fired")
	}
	if !m.Done() {
		t.Fatal("machine did not finish after automatic recovery")
	}
	if rep.DetectedAt-rep.ErrorAt != 80*sim.Microsecond {
		t.Fatalf("detection latency = %d", rep.DetectedAt-rep.ErrorAt)
	}
	// Lost work includes the detection window plus work since the target.
	if rep.LostWork < 80*sim.Microsecond {
		t.Fatalf("lost work %d below detection latency", rep.LostWork)
	}
	if err := m.VerifyParity(); err != nil {
		t.Fatal(err)
	}
	if st.Instructions == 0 {
		t.Fatal("no instructions recorded")
	}
}

// TestScheduledNodeLossDetectAndRecover: a scheduled node loss is
// detected, recovered and resumed to completion with parity intact. The
// 3+1-parity input loses a node that holds parity with pending updates, so
// recovery must drop their debts, and the stats must count them.
func TestScheduledNodeLossDetectAndRecover(t *testing.T) {
	for _, tc := range []struct {
		name        string
		groupSize   int
		instrs      uint64
		at          sim.Time
		victim      arch.NodeID
		wantDropped bool
	}{
		{"7+1", 0, 250000, 380 * sim.Microsecond, 2, false},
		{"3+1", 4, 150000, 300 * sim.Microsecond, 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := verifyCfg()
			if tc.groupSize != 0 {
				cfg.GroupSize = tc.groupSize
			}
			m := New(cfg)
			m.Load(testProfile(tc.instrs))
			fired := false
			m.ScheduleNodeLoss(tc.at, 60*sim.Microsecond, tc.victim, func(r DetectionReport) {
				fired = true
				if r.Recovery.LogPagesRebuilt == 0 {
					t.Error("no log pages rebuilt for the lost node")
				}
			})
			st := m.Run()
			if !fired {
				t.Fatal("detection never fired")
			}
			if !m.Done() {
				t.Fatal("machine did not finish")
			}
			if err := m.VerifyParity(); err != nil {
				t.Fatal(err)
			}
			if tc.wantDropped && st.ParityDebtsDropped == 0 {
				t.Fatal("no parity debts dropped; the recovery settled nothing")
			}
		})
	}
}

func TestDetectionWindowWorkIsReExecuted(t *testing.T) {
	// Instructions executed inside the rolled-back window are executed
	// again: the total instruction count exceeds a fault-free run's.
	clean := New(verifyCfg())
	clean.Load(testProfile(200000))
	cleanInstr := clean.Run().Instructions

	m := New(verifyCfg())
	m.Load(testProfile(200000))
	m.ScheduleTransientError(350*sim.Microsecond, 100*sim.Microsecond, func(DetectionReport) {})
	st := m.Run()
	if st.Instructions <= cleanInstr {
		t.Fatalf("faulted run executed %d instructions, clean run %d; lost work not re-executed",
			st.Instructions, cleanInstr)
	}
}

func TestDetectionTooLateForRetentionPanics(t *testing.T) {
	// A detection latency far beyond the retention window must fail
	// loudly, not mis-recover.
	cfg := verifyCfg()
	cfg.Checkpoint.Interval = 50 * sim.Microsecond
	m := New(cfg)
	m.Load(testProfile(250000))
	defer func() {
		if recover() == nil {
			t.Fatal("stale target did not panic")
		}
	}()
	// Detection after 5 intervals: the safe target ages out (retain=2).
	m.ScheduleTransientError(60*sim.Microsecond, 250*sim.Microsecond, func(DetectionReport) {})
	m.Run()
}

// restoredImageErr runs one scheduled fault cycle of the given kind under
// the given backend and returns the comparison of the restored image with
// the target checkpoint's snapshot. The comparison runs inside done, right
// after recovery and resume and before any resumed event, which is where
// revive-sim -fault makes it. dataBeforeLog selects the deliberately broken
// controller build the chaos self-test uses.
func restoredImageErr(t *testing.T, kind, strategy string, dataBeforeLog bool) error {
	t.Helper()
	cfg := verifyCfg()
	cfg.Strategy = strategy
	m := New(cfg)
	for _, ctrl := range m.Ctrls {
		ctrl.BugDataBeforeLog = dataBeforeLog
	}
	m.Load(testProfile(150000))
	fired := false
	var imgErr error
	done := func(r DetectionReport) {
		fired = true
		if r.Err != nil {
			t.Fatalf("recovery cycle failed: %v", r.Err)
		}
		if !r.Recovery.ByteExact() {
			t.Fatalf("rollback scoped to a %d-node cone; the image is not comparable", r.Recovery.ConeNodes)
		}
		snap, ok := m.SnapshotAt(r.Target)
		if !ok {
			t.Fatalf("no snapshot for target epoch %d", r.Target)
		}
		imgErr = m.VerifyAgainstSnapshot(snap)
	}
	at, det := 380*sim.Microsecond, 60*sim.Microsecond
	switch kind {
	case "node-loss":
		m.ScheduleNodeLoss(at, det, 2, done)
	case "cpu-loss":
		m.ScheduleCPULoss(at, det, 2, done)
	case "mem-partial":
		m.ScheduleMemPartialLoss(at, det, 2, 0, arch.Frame(8), done)
	case "transient":
		m.ScheduleTransientError(at, det, done)
	default:
		panic(fmt.Sprintf("unknown fault kind %q", kind))
	}
	m.Run()
	if !fired {
		t.Fatal("detection never fired")
	}
	return imgErr
}

// TestScheduledRecoveryRestoresSnapshot: for every scheduled fault kind
// under every backend, memory right after recovery and resume equals the
// target checkpoint's snapshot byte for byte.
func TestScheduledRecoveryRestoresSnapshot(t *testing.T) {
	for _, kind := range []string{"node-loss", "cpu-loss", "mem-partial", "transient"} {
		for _, strategy := range core.StrategyNames() {
			t.Run(kind+"/"+strategy, func(t *testing.T) {
				if err := restoredImageErr(t, kind, strategy, false); err != nil {
					t.Fatalf("restored image differs from the snapshot: %v", err)
				}
			})
		}
	}
}

// TestScheduledRecoveryCatchesDataBeforeLog: with the data write issued
// before its log entry, recovery cannot restore the overwritten lines.
// Parity stays consistent, so only the snapshot comparison sees it.
func TestScheduledRecoveryCatchesDataBeforeLog(t *testing.T) {
	if err := restoredImageErr(t, "node-loss", core.DefaultStrategy, true); err == nil {
		t.Fatal("data-before-log build restored an image equal to the snapshot")
	}
}
