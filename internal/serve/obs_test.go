package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"revive/internal/obs"
	"revive/internal/trace"
)

// syncBuffer is a goroutine-safe log sink (the scheduler goroutine and
// the test both touch it).
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// sseEvent is one parsed Server-Sent-Events frame.
type sseEvent struct {
	ID   uint64
	Name string
	Data string
}

// readSSE parses frames off a live SSE stream until stop returns true or
// the stream ends.
func readSSE(t *testing.T, r io.Reader, stop func(ev sseEvent) bool) []sseEvent {
	t.Helper()
	var out []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.Name != "" || cur.Data != "" {
				out = append(out, cur)
				if stop != nil && stop(cur) {
					return out
				}
			}
			cur = sseEvent{}
		case strings.HasPrefix(line, "id: "):
			id, err := strconv.ParseUint(line[4:], 10, 64)
			if err != nil {
				t.Fatalf("bad SSE id line %q", line)
			}
			cur.ID = id
		case strings.HasPrefix(line, "event: "):
			cur.Name = line[7:]
		case strings.HasPrefix(line, "data: "):
			cur.Data = line[6:]
		}
	}
	return out
}

// submitJob posts a request and returns the job ID from the status JSON.
func submitJob(t *testing.T, url string, req Request) string {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" {
		t.Fatal("submission returned no job ID")
	}
	return st.ID
}

// TestSSELiveJob follows a real job's stream end to end: accepted and
// running lifecycle frames, at least one per-epoch sample, and a
// terminal done event that closes the stream.
func TestSSELiveJob(t *testing.T) {
	s := newTestServer(t, t.TempDir())
	defer shutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id := submitJob(t, ts.URL, tinyReq())
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	evs := readSSE(t, resp.Body, nil) // runs until the ring closes at done
	if len(evs) == 0 {
		t.Fatal("no events streamed")
	}
	counts := map[string]int{}
	var last uint64
	for _, ev := range evs {
		counts[ev.Name]++
		if ev.ID <= last {
			t.Fatalf("event IDs not strictly increasing: %d after %d", ev.ID, last)
		}
		last = ev.ID
		if !json.Valid([]byte(ev.Data)) {
			t.Fatalf("event %q data is not JSON: %s", ev.Name, ev.Data)
		}
	}
	if counts["accepted"] != 1 || counts["running"] < 1 || counts["done"] != 1 {
		t.Fatalf("lifecycle events off: %v", counts)
	}
	if counts["sample"] < 1 {
		t.Fatalf("no per-epoch samples streamed: %v", counts)
	}
	if evs[len(evs)-1].Name != "done" {
		t.Fatalf("stream must terminate with done, got %q", evs[len(evs)-1].Name)
	}
	// Sample frames carry the app label and an epoch.
	var frame struct {
		App    string `json:"app"`
		Sample struct {
			Epoch uint64 `json:"epoch"`
		} `json:"sample"`
	}
	for _, ev := range evs {
		if ev.Name == "sample" {
			if err := json.Unmarshal([]byte(ev.Data), &frame); err != nil || frame.App != "FFT" {
				t.Fatalf("sample frame %s: err=%v app=%q", ev.Data, err, frame.App)
			}
			break
		}
	}
}

// TestSSEReconnectReplaysGapExactlyOnce drives the Last-Event-ID
// contract against the live handler with a hand-fed ring, so the gap
// boundaries are exact: read a prefix, disconnect, append more, then
// reconnect with Last-Event-ID and expect precisely the missed suffix.
func TestSSEReconnectReplaysGapExactlyOnce(t *testing.T) {
	s := newTestServer(t, t.TempDir())
	defer shutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id := strings.Repeat("ab", 32)
	job := &Job{JobState: JobState{ID: id, State: "running"}, done: make(chan struct{}), events: obs.NewRing(64)}
	s.mu.Lock()
	s.jobs[id] = job
	s.mu.Unlock()
	for i := 1; i <= 3; i++ {
		job.events.Append("sample", []byte(fmt.Sprintf(`{"n":%d}`, i)))
	}

	// First connection: read the three events, then drop it.
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/jobs/"+id+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	first := readSSE(t, resp.Body, func(ev sseEvent) bool { return ev.ID == 3 })
	cancel()
	resp.Body.Close()
	if len(first) != 3 {
		t.Fatalf("first connection saw %d events, want 3", len(first))
	}

	// The client is gone; the job makes progress.
	for i := 4; i <= 6; i++ {
		job.events.Append("sample", []byte(fmt.Sprintf(`{"n":%d}`, i)))
	}
	job.events.Append("done", []byte(`{"state":"done"}`))
	job.events.Close()

	// Reconnect where we left off: the gap (4..7) replays exactly once
	// and the closed ring ends the stream.
	req2, _ := http.NewRequest("GET", ts.URL+"/jobs/"+id+"/events", nil)
	req2.Header.Set("Last-Event-ID", strconv.FormatUint(first[len(first)-1].ID, 10))
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	second := readSSE(t, resp2.Body, nil)
	if len(second) != 4 {
		t.Fatalf("reconnect replayed %d events, want exactly the 4 missed", len(second))
	}
	for i, ev := range second {
		if ev.ID != uint64(4+i) {
			t.Fatalf("reconnect event %d has ID %d, want %d", i, ev.ID, 4+i)
		}
	}
	if second[len(second)-1].Name != "done" {
		t.Fatal("replayed stream must end with the terminal event")
	}
}

// TestSSEClientDisconnectDoesNotBlockJob cancels a streaming client
// mid-run and checks the job still completes and the daemon still
// drains cleanly (no goroutine wedged on a dead stream). Meaningful
// under -race.
func TestSSEClientDisconnectDoesNotBlockJob(t *testing.T) {
	s := newTestServer(t, t.TempDir())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id := submitJob(t, ts.URL, tinyReq())
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/jobs/"+id+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read one frame to prove the stream is live, then vanish.
	readSSE(t, resp.Body, func(ev sseEvent) bool { return true })
	cancel()
	resp.Body.Close()

	job, ok := s.Job(id)
	if !ok {
		t.Fatal("job lost")
	}
	waitDone(t, job)
	s.mu.Lock()
	state := job.State
	s.mu.Unlock()
	if state != "done" {
		t.Fatalf("job state = %q after disconnect, want done", state)
	}
	shutdown(t, s) // must not hang on the dead stream
}

// TestMetricsEndpoint scrapes /metrics after a real job and checks the
// exposition format and the presence of the scheduler/journal/cache
// series the tentpole promises.
func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, t.TempDir())
	defer shutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id := submitJob(t, ts.URL, tinyReq())
	job, _ := s.Job(id)
	waitDone(t, job)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	blob, _ := io.ReadAll(resp.Body)
	out := string(blob)

	for _, want := range []string{
		"revive_jobs_accepted_total 1",
		"revive_jobs_completed_total 1",
		"revive_simulations_total 1",
		`revive_job_duration_seconds_bucket{kind="sim",le="+Inf"} 1`,
		`revive_job_duration_seconds_count{kind="sim"} 1`,
		"revive_wal_appends_total",
		"revive_wal_fsync_seconds_count",
		"revive_queue_depth 0",
		"revive_journal_seq",
		"revive_cache_entries 1",
		"revive_job_events_total",
		"revive_sse_streams 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Format sanity: every line is a comment or `name value`.
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# ") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Fatalf("sample line %q is not `name value`", line)
		}
	}
	if t.Failed() {
		t.Logf("full exposition:\n%s", out)
	}
}

// TestStatuszGauges checks the new /statusz fields: journal generation,
// cache entries and bytes.
func TestStatuszGauges(t *testing.T) {
	s := newTestServer(t, t.TempDir())
	defer shutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id := submitJob(t, ts.URL, tinyReq())
	job, _ := s.Job(id)
	waitDone(t, job)

	resp, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Journal struct {
			Seq        uint64 `json:"seq"`
			Generation uint64 `json:"generation"`
		} `json:"journal"`
		Cache struct {
			Entries int   `json:"entries"`
			Bytes   int64 `json:"bytes"`
		} `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Cache.Entries != 1 || st.Cache.Bytes <= 0 {
		t.Fatalf("cache usage = %+v, want 1 entry with bytes", st.Cache)
	}
	if st.Journal.Seq == 0 {
		t.Fatal("journal seq missing")
	}
	if st.Journal.Generation > st.Journal.Seq {
		t.Fatalf("generation %d ahead of seq %d", st.Journal.Generation, st.Journal.Seq)
	}
}

// TestObservedExecuteByteIdentical pins the tentpole's safety property:
// a live progress sink never changes the result bytes.
func TestObservedExecuteByteIdentical(t *testing.T) {
	req, _, err := Canonicalize(tinyReq())
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Execute(context.Background(), req, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var samples, cells int
	sink := &ProgressSink{
		Sample: func(string, trace.Sample) { samples++ },
		Cell:   func(string, int, int, string) { cells++ },
	}
	observed, err := ExecuteObserved(context.Background(), req, 0, 0, sink)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, observed) {
		t.Fatal("observed execution changed the result bytes")
	}
	if samples < 1 || cells != 2 {
		t.Fatalf("sink saw samples=%d cells=%d, want >=1 samples and start+finish", samples, cells)
	}
}

// TestStructuredLogCorrelation runs a job with a JSON logger attached
// and checks every record parses and the job's records carry its ID.
func TestStructuredLogCorrelation(t *testing.T) {
	var buf syncBuffer
	s, err := New(Options{
		StateDir:   t.TempDir(),
		JobTimeout: 2 * time.Minute,
		Logger:     obs.NewLogger(&buf),
	})
	if err != nil {
		t.Fatal(err)
	}
	job, _, err := s.Submit(tinyReq())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	shutdown(t, s)

	var sawAccepted, sawRunning, sawDone bool
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not JSON: %s", line)
		}
		if rec["job"] == job.ID {
			switch rec["msg"] {
			case "job accepted":
				sawAccepted = true
			case "job running":
				sawRunning = true
			case "job done":
				sawDone = true
			}
		}
	}
	if !sawAccepted || !sawRunning || !sawDone {
		t.Fatalf("correlated records missing: accepted=%v running=%v done=%v\n%s",
			sawAccepted, sawRunning, sawDone, buf.String())
	}
}

// TestSSEReconnectFromPreviousDaemonLife pins the stale-cursor contract
// end to end: a client reconnects with a Last-Event-ID recorded before a
// daemon restart, against a job whose ring (rebuilt in this life) restarted
// numbering at 1. The ID is ahead of the ring head, can never match this
// ring's numbering, and the defined behavior is a full replay from the
// start of the retained window — not a silent skip of everything until IDs
// grow past the stale value.
func TestSSEReconnectFromPreviousDaemonLife(t *testing.T) {
	s := newTestServer(t, t.TempDir())
	defer shutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id := strings.Repeat("cd", 32)
	job := &Job{JobState: JobState{ID: id, State: "running"}, done: make(chan struct{}), events: obs.NewRing(64)}
	s.mu.Lock()
	s.jobs[id] = job
	s.mu.Unlock()
	for i := 1; i <= 4; i++ {
		job.events.Append("sample", []byte(fmt.Sprintf(`{"n":%d}`, i)))
	}
	job.events.Append("done", []byte(`{"state":"done"}`))
	job.events.Close()

	// The previous daemon life got much further before dying; the client
	// replays its last cursor from that life.
	req, _ := http.NewRequest("GET", ts.URL+"/jobs/"+id+"/events", nil)
	req.Header.Set("Last-Event-ID", "7041")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	evs := readSSE(t, resp.Body, nil)
	if len(evs) != 5 {
		t.Fatalf("stale-cursor reconnect streamed %d events, want full replay of 5", len(evs))
	}
	for i, ev := range evs {
		if ev.ID != uint64(i+1) {
			t.Fatalf("replay event %d has ID %d, want %d", i, ev.ID, i+1)
		}
	}
	if evs[len(evs)-1].Name != "done" {
		t.Fatal("replayed stream must end with the terminal event")
	}
}
