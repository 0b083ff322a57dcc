package machine

import (
	"encoding/json"
	"errors"
	"testing"

	"revive/internal/sim"
)

// TestRunBudgetCompletesUnderGenerousBudget: with a budget far above what
// the workload needs, RunBudget is Run — same completion, same stats.
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
	want := ref.Run()
	if st.Instructions != want.Instructions || st.ExecTime != want.ExecTime {
		t.Fatalf("budgeted run diverged: instr %d vs %d, exec %d vs %d",
			st.Instructions, want.Instructions, st.ExecTime, want.ExecTime)
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

// TestRunBudgetHonoursShards: RunBudget keeps the tick-parallel path on a
// sharded machine, with and without a budget, and its stats equal the
// serial machine's.
func TestRunBudgetHonoursShards(t *testing.T) {
	run := func(shards int, budget uint64) (string, uint64) {
		cfg := smallConfig(true)
		cfg.Shards = shards
		m := New(cfg)
		m.Engine.SetParallelThreshold(2) // the 4-node model's rounds are small
		m.Load(testProfile(60000))
		st, err := m.RunBudget(budget)
		if err != nil {
			t.Fatalf("shards=%d budget=%d: %v", shards, budget, err)
		}
		b, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		return string(b), m.Engine.ParallelRounds()
	}
	for _, budget := range []uint64{0, 1 << 40} {
		want, _ := run(1, budget)
		got, rounds := run(2, budget)
		if rounds == 0 {
			t.Fatalf("budget=%d: RunBudget executed no parallel rounds at 2 shards", budget)
		}
		if got != want {
			t.Fatalf("budget=%d: stats at 2 shards diverge from serial:\n%s\nvs\n%s", budget, got, want)
		}
	}
}
