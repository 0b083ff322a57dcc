package machine

import (
	"encoding/json"
	"errors"
	"testing"

	"revive/internal/sim"
)

// TestRunBudgetCompletesUnderGenerousBudget: with a budget far above what
// the workload needs, RunBudget is Run — same completion, byte-identical
// stats.
func TestRunBudgetCompletesUnderGenerousBudget(t *testing.T) {
	m := New(smallConfig(true))
	m.Load(testProfile(20000))
	st, err := m.RunBudget(1 << 40)
	if err != nil {
		t.Fatalf("RunBudget: %v", err)
	}
	if !m.Done() {
		t.Fatal("workload not finished")
	}
	ref := New(smallConfig(true))
	ref.Load(testProfile(20000))
	want, err := json.Marshal(ref.Run())
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("budgeted run diverged:\n%s\nvs\n%s", got, want)
	}
}

// TestRunBudgetLivelockIsTyped: a budget too small for the workload must
// surface sim.ErrLivelock (wrapped) instead of hanging or panicking, with
// the partial stats still returned.
func TestRunBudgetLivelockIsTyped(t *testing.T) {
	m := New(smallConfig(true))
	m.Load(testProfile(200000))
	st, err := m.RunBudget(500)
	if !errors.Is(err, sim.ErrLivelock) {
		t.Fatalf("err = %v, want sim.ErrLivelock", err)
	}
	if st == nil {
		t.Fatal("partial stats not returned with the watchdog error")
	}
	if m.Done() {
		t.Fatal("workload claims completion under a 500-event budget")
	}
}

// TestRunBudgetZeroMeansUnbounded: budget 0 disables the livelock guard
// but still returns (rather than panics) on a healthy run.
func TestRunBudgetZeroMeansUnbounded(t *testing.T) {
	m := New(smallConfig(false))
	m.Load(testProfile(5000))
	if _, err := m.RunBudget(0); err != nil {
		t.Fatalf("RunBudget(0): %v", err)
	}
	if !m.Done() {
		t.Fatal("workload not finished")
	}
}
