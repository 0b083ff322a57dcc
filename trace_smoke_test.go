package revive

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"revive/internal/trace"
)

// TestTracedRunProducesValidChromeTraceAndSeries is the end-to-end smoke
// for the observability sinks: a short checkpointed run with the tracer and
// the epoch series attached must yield a Perfetto-loadable Chrome trace and
// a non-empty time-series — the same wiring revive-sim's -trace and -series
// flags use.
func TestTracedRunProducesValidChromeTraceAndSeries(t *testing.T) {
	o := Options{Quick: true}
	app, _ := AppByName("FFT", o)
	cfg := EvalConfig(o)
	cfg.Trace = trace.New(1 << 20)
	cfg.Series = &trace.Series{}

	m := New(cfg)
	m.Load(app)
	st := m.Run()
	if st.Checkpoints == 0 {
		t.Fatal("no checkpoints in a quick run")
	}

	if cfg.Trace.Total() == 0 {
		t.Fatal("traced run emitted no events")
	}
	if cfg.Trace.Total() != uint64(len(cfg.Trace.Events()))+cfg.Trace.Dropped() {
		t.Fatalf("event accounting inconsistent: total %d, kept %d, dropped %d",
			cfg.Trace.Total(), len(cfg.Trace.Events()), cfg.Trace.Dropped())
	}
	var buf bytes.Buffer
	if err := cfg.Trace.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if err := trace.ValidateChrome(buf.Bytes()); err != nil {
		t.Fatalf("trace of a full run is not valid Chrome trace-event JSON: %v", err)
	}
	// The run checkpoints, misses, logs, and updates parity; all of those
	// must show up as events.
	events := cfg.Trace.Events()
	seen := map[trace.Kind]bool{}
	for _, e := range events {
		seen[e.Kind] = true
	}
	for _, k := range []trace.Kind{
		trace.ProcExec, trace.MissService, trace.LogAppend, trace.CkptMarker,
		trace.ParityUpdate, trace.Checkpoint, trace.CkpFlush, trace.CkpBarrier, trace.CkpCommit,
	} {
		if !seen[k] {
			t.Errorf("no %v event in a checkpointed run's trace", k)
		}
	}

	s := cfg.Series
	if s.Len() == 0 {
		t.Fatal("series collected no epoch samples")
	}
	if got := s.Len(); got != st.Checkpoints {
		t.Errorf("series has %d sample(s), want one per checkpoint (%d)", got, st.Checkpoints)
	}
	last := s.Samples[len(s.Samples)-1]
	if last.Instructions == 0 || len(last.NodeLogBytes) != cfg.Nodes {
		t.Errorf("last sample incomplete: %+v", last)
	}

	var csv bytes.Buffer
	if err := s.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != s.Len()+1 {
		t.Fatalf("CSV has %d line(s), want header + %d", len(lines), s.Len())
	}
	if !strings.HasPrefix(lines[0], "epoch,time_ns,") || !strings.Contains(lines[0], "log_node_0") {
		t.Errorf("unexpected CSV header: %s", lines[0])
	}
}

// TestUntracedRunUnaffected pins the acceptance criterion that tracing
// observes the run without perturbing it: a traced run executes exactly the
// untraced run's events and produces byte-identical stats (the
// zero-allocation guarantee of the disabled path itself is asserted in
// internal/trace's TestEmitZeroAlloc benchmark-test).
func TestUntracedRunUnaffected(t *testing.T) {
	o := Options{Quick: true}
	app, _ := AppByName("FFT", o)

	run := func(traced bool) ([]byte, uint64) {
		cfg := EvalConfig(o)
		if traced {
			cfg.Trace = trace.New(0)
		}
		m := New(cfg)
		m.Load(app)
		blob, err := json.Marshal(m.Run())
		if err != nil {
			t.Fatal(err)
		}
		return blob, m.Engine.Steps()
	}
	plain, plainSteps := run(false)
	traced, tracedSteps := run(true)
	if plainSteps != tracedSteps {
		t.Fatalf("tracing changed the simulation: %d vs %d events", plainSteps, tracedSteps)
	}
	if !bytes.Equal(plain, traced) {
		t.Fatalf("tracing changed the simulation's stats:\nuntraced %s\ntraced   %s", plain, traced)
	}
}
