package serve

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"
)

// The crash harness: a deterministic kill-point sweep. Every durable
// operation the daemon performs (WAL appends — including a scheduled torn
// half-write — snapshot writes, latest.json repoints, cache writes)
// crosses a named kill point; arming the switch at point N makes the
// journal and cache fail-stop at exactly that instant, which is kill -9
// without leaving the test process. Each trial then restarts a fresh
// Server on the same state directory and proves the two ReVive-style
// guarantees end to end:
//
//   - exactly-once: every submitted job ends done, never failed, no matter
//     where the daemon died, and a completed job is never re-simulated;
//   - byte-identical: the recovered results equal an uninterrupted direct
//     execution, byte for byte.

// crashReqs are the two jobs each trial runs (serialized, so the
// kill-point schedule is deterministic).
func crashReqs() []Request {
	return []Request{
		{Kind: "sim", Apps: []string{"FFT"}, Nodes: 8, Quick: true},
		{Kind: "sim", Apps: []string{"LU"}, Nodes: 8, Quick: true},
	}
}

// crashOpts are the trial server options: snapshot after every record so
// the sweep crosses snapshot/pointer/prune kill points at every
// transition, not just appends (and the 50-point schedule fits inside two
// job lifecycles).
func crashOpts(dir string, cr *crash, logf func(string, ...any)) Options {
	return Options{
		StateDir:      dir,
		SnapshotEvery: 1,
		JobTimeout:    2 * time.Minute,
		Log:           logf,
		crash:         cr,
	}
}

// referenceBytes executes the trial jobs directly (no daemon) and returns
// their canonical response bytes.
func referenceBytes(t *testing.T) [][]byte {
	t.Helper()
	var refs [][]byte
	for _, rq := range crashReqs() {
		req, _, err := Canonicalize(rq)
		if err != nil {
			t.Fatal(err)
		}
		data, err := Execute(context.Background(), req, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, data)
	}
	return refs
}

// waitDoneOrDead waits for a job to finish in a life that may be killed:
// once the crash switch has fired nothing can reach "done" any more (the
// journal can no longer record it), so a dead switch ends the wait.
func waitDoneOrDead(t *testing.T, job *Job, cr *crash) bool {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		select {
		case <-job.done:
			return true
		case <-time.After(10 * time.Millisecond):
			if cr.dead() {
				return false
			}
			if time.Now().After(deadline) {
				t.Fatal("life-1 job neither finished nor died")
			}
		}
	}
}

// TestCrashScheduleLength pins the schedule: two serialized job
// lifecycles under SnapshotEvery=2 must cross at least 50 kill points, so
// the 50-point sweep in TestCrashKillRestartVerify exercises the whole
// range (early points die mid-admission, late ones mid-compaction).
func TestCrashScheduleLength(t *testing.T) {
	counter := newCrash(1 << 30) // counts crossings, never fires
	s, err := New(crashOpts(t.TempDir(), counter, t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	for _, rq := range crashReqs() {
		job, _, err := s.Submit(rq)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, job)
	}
	shutdown(t, s)
	n := counter.points()
	t.Logf("uninterrupted run crosses %d kill points", n)
	if n < 50 {
		t.Fatalf("schedule has %d kill points, want >= 50 for the sweep", n)
	}
}

// TestCrashKillRestartVerify is the 50-point kill→restart→verify sweep.
func TestCrashKillRestartVerify(t *testing.T) {
	refs := referenceBytes(t)
	const points = 50
	for n := 0; n < points; n++ {
		t.Run(fmt.Sprintf("kill-at-%02d", n), func(t *testing.T) {
			t.Parallel()
			crashTrial(t, n, refs)
		})
	}
}

func crashTrial(t *testing.T, n int, refs [][]byte) {
	dir := t.TempDir()
	cr := newCrash(n)

	// Life 1: run under the armed switch until both jobs finish or the
	// daemon dies at kill point n.
	s1, err := New(crashOpts(dir, cr, t.Logf))
	if err != nil {
		t.Fatalf("life-1 open: %v", err)
	}
	for _, rq := range crashReqs() {
		job, _, err := s1.Submit(rq)
		if err != nil {
			break // killed during admission: nothing more can be submitted
		}
		if !waitDoneOrDead(t, job, cr) {
			break
		}
	}
	if where := cr.firedAt(); where != "" {
		t.Logf("daemon killed at point %d: %s", n, where)
	}
	// Release life 1 (no-op on a dead journal; a real drain otherwise).
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	s1.Shutdown(ctx)
	cancel()

	// Life 2: restart on the same state directory with no crash armed —
	// recovery replays the journal (skipping any torn tail), re-queues
	// interrupted jobs, and completes them.
	s2, err := New(crashOpts(dir, nil, t.Logf))
	if err != nil {
		t.Fatalf("life-2 open: %v", err)
	}
	defer shutdown(t, s2)
	ids := make([]string, len(refs))
	for i, rq := range crashReqs() {
		job, _, err := s2.Submit(rq)
		if err != nil {
			t.Fatalf("life-2 submit %d: %v", i, err)
		}
		ids[i] = job.ID
		waitDone(t, job)
		s2.mu.Lock()
		state, jerr := job.State, job.Err
		s2.mu.Unlock()
		if state != "done" {
			t.Fatalf("job %d recovered into %q (%s), want done", i, state, jerr)
		}
		got, ok := s2.Result(job.ID)
		if !ok {
			t.Fatalf("job %d done but result missing", i)
		}
		if !bytes.Equal(got, refs[i]) {
			t.Errorf("job %d result differs from the uninterrupted reference after kill at %d", i, n)
		}
	}

	// Exactly-once probe: resubmitting completed jobs must not move the
	// simulation counter, and must serve the same bytes.
	sims := s2.Counters().Simulations
	for i, rq := range crashReqs() {
		job, fresh, err := s2.Submit(rq)
		if err != nil {
			t.Fatal(err)
		}
		if fresh {
			t.Fatalf("resubmission of job %d was admitted as new work", i)
		}
		waitDone(t, job)
		got, _ := s2.Result(job.ID)
		if !bytes.Equal(got, refs[i]) {
			t.Errorf("resubmitted job %d served different bytes", i)
		}
	}
	if got := s2.Counters().Simulations; got != sims {
		t.Fatalf("resubmission re-simulated: counter %d -> %d", sims, got)
	}

	// A third life must find everything terminal and replay cleanly.
	s3, err := New(crashOpts(dir, nil, t.Logf))
	if err != nil {
		t.Fatalf("life-3 open: %v", err)
	}
	defer shutdown(t, s3)
	for i, id := range ids {
		job, ok := s3.Job(id)
		if !ok {
			t.Fatalf("job %d lost by life 3", i)
		}
		s3.mu.Lock()
		state := job.State
		s3.mu.Unlock()
		if state != "done" {
			t.Fatalf("job %d in life 3 = %q, want done", i, state)
		}
	}
	if got := s3.Counters().Simulations; got != 0 {
		t.Fatalf("life 3 re-simulated %d completed jobs", got)
	}
}
