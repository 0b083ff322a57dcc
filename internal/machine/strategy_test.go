package machine

import (
	"encoding/json"
	"reflect"
	"testing"

	"revive/internal/core"
	"revive/internal/sim"
	"revive/internal/stats"
)

// verifyAll runs the machine-level invariant registry — the same checks
// the chaos harness applies at every quiescent point. Every registered
// strategy backend must satisfy all of them.
func verifyAll(t *testing.T, m *Machine, strat string) {
	t.Helper()
	checks := []struct {
		name string
		fn   func() error
	}{
		{"parity", m.VerifyParity},
		{"log", m.VerifyLog},
		{"lbits", m.VerifyLBits},
		{"coherence", m.VerifyCoherence},
		{"transport", m.VerifyTransport},
	}
	for _, c := range checks {
		if err := c.fn(); err != nil {
			t.Fatalf("strategy %q: %s invariant violated: %v", strat, c.name, err)
		}
	}
}

// TestStrategyConformanceErrorFree: every backend completes an error-free
// run, stamps its name into the stats envelope, and leaves the machine
// satisfying the full invariant registry. A second run from the same
// inputs must end with byte-identical stats and final memory image.
func TestStrategyConformanceErrorFree(t *testing.T) {
	run := func(name string) (*Machine, *stats.Stats) {
		cfg := verifyCfg()
		cfg.Strategy = name
		m := New(cfg)
		m.Load(testProfile(60000))
		return m, m.Run()
	}
	for _, name := range core.StrategyNames() {
		t.Run(name, func(t *testing.T) {
			m, st := run(name)
			if !m.Done() {
				t.Fatal("machine did not finish")
			}
			if st.Strategy != name {
				t.Fatalf("stats stamped strategy %q, want %q", st.Strategy, name)
			}
			if st.Checkpoints == 0 {
				t.Fatal("no checkpoints committed")
			}
			verifyAll(t, m, name)
			again, st2 := run(name)
			b1, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			b2, err := json.Marshal(st2)
			if err != nil {
				t.Fatal(err)
			}
			if string(b1) != string(b2) {
				t.Errorf("rerun stats diverge:\n%s\nvs\n%s", b2, b1)
			}
			if !reflect.DeepEqual(again.MemImage(), m.MemImage()) {
				t.Error("rerun final memory image diverges")
			}
		})
	}
}

// TestStrategyConformanceNodeLoss: every backend survives the full
// node-loss cycle — inject, recover, resume, run to completion. The
// byte-exact snapshot oracle applies whenever the rollback was global; a
// conelog recovery that legitimately limited itself to a dependence cone
// is exempt from that single check (see DESIGN.md section 4f) but not
// from the rest of the registry.
func TestStrategyConformanceNodeLoss(t *testing.T) {
	for _, name := range core.StrategyNames() {
		t.Run(name, func(t *testing.T) {
			cfg := verifyCfg()
			cfg.Strategy = name
			m := New(cfg)
			m.Load(testProfile(150000))
			runToEpoch(t, m, 2, 50*sim.Microsecond)
			m.InjectNodeLoss(1)
			rep, err := m.Recover(1, 2)
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			if rep.Unavailable() <= 0 {
				t.Fatal("recovery reported zero unavailable time")
			}
			if rep.ByteExact() {
				snap, ok := m.SnapshotAt(2)
				if !ok {
					t.Fatal("no snapshot for epoch 2")
				}
				if err := m.VerifyAgainstSnapshot(snap); err != nil {
					t.Fatalf("memory does not match checkpoint after recovery: %v", err)
				}
			}
			if err := m.VerifyParity(); err != nil {
				t.Fatalf("parity inconsistent after recovery: %v", err)
			}
			if err := m.Resume(rep); err != nil {
				t.Fatalf("resume failed: %v", err)
			}
			m.Engine.Run()
			if !m.Done() {
				t.Fatal("machine did not finish after resume")
			}
			if err := m.VerifyParity(); err != nil {
				t.Fatalf("parity broken after resumed run: %v", err)
			}
		})
	}
}

// TestConelogPrivateWorkloadScopesRollback: with no cross-node sharing the
// victim's dependence cone is just the victim, so a conelog node-loss
// recovery rolls back one node, lets provably-uninfluenced entries stand,
// and still satisfies parity/log/L-bit invariants.
func TestConelogPrivateWorkloadScopesRollback(t *testing.T) {
	cfg := verifyCfg()
	cfg.Strategy = "conelog"
	m := New(cfg)
	// Private accesses only (no inter-node dependences); the budget is
	// larger than the shared-workload tests because the share-free run
	// moves faster and must still reach the second checkpoint.
	p := testProfile(400000)
	p.SharedFrac = 0
	m.Load(p)
	runToEpoch(t, m, 2, 50*sim.Microsecond)
	m.InjectNodeLoss(1)
	rep, err := m.Recover(1, 2)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if rep.ConeGlobal {
		t.Fatalf("private workload escalated to a global rollback: %+v", rep)
	}
	if rep.ConeNodes != 1 {
		t.Fatalf("cone spans %d nodes, want 1 (the victim)", rep.ConeNodes)
	}
	if rep.EntriesOutsideCone == 0 {
		t.Fatal("no entries were left standing; the scope did nothing")
	}
	if rep.EntriesRestored == 0 {
		t.Fatal("no entries restored; the victim's own log must still roll back")
	}
	verifyAll(t, m, "conelog")
	if err := m.Resume(rep); err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	m.Engine.Run()
	if !m.Done() {
		t.Fatal("machine did not finish after scoped recovery")
	}
	if err := m.VerifyParity(); err != nil {
		t.Fatalf("parity broken after resumed run: %v", err)
	}
}

// TestConelogSharedWorkloadFallsBackToGlobal: heavy sharing drags every
// node into the cone; past half the machine conelog must fall back to a
// global rollback that is byte-identical to the checkpoint.
func TestConelogSharedWorkloadFallsBackToGlobal(t *testing.T) {
	cfg := verifyCfg()
	cfg.Strategy = "conelog"
	m := New(cfg)
	p := testProfile(150000)
	p.SharedFrac = 0.3
	p.SharedWriteFrac = 0.5
	m.Load(p)
	runToEpoch(t, m, 2, 50*sim.Microsecond)
	m.InjectNodeLoss(1)
	rep, err := m.Recover(1, 2)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if !rep.ConeGlobal {
		t.Fatalf("shared workload did not escalate to a global rollback: %+v", rep)
	}
	recoverSnap, ok := m.SnapshotAt(2)
	if !ok {
		t.Fatal("no snapshot for epoch 2")
	}
	if err := m.VerifyAgainstSnapshot(recoverSnap); err != nil {
		t.Fatalf("global fallback is not byte-exact: %v", err)
	}
	verifyAll(t, m, "conelog")
}
