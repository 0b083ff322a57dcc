package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// tinyReq is the cheapest real job: one 8-node quick FFT (one parity
// group, floor-scaled instruction budget, ~0.5 s).
func tinyReq() Request {
	return Request{Kind: "sim", Apps: []string{"FFT"}, Nodes: 8, Quick: true}
}

func newTestServer(t *testing.T, dir string) *Server {
	t.Helper()
	s, err := New(Options{StateDir: dir, JobTimeout: 2 * time.Minute, Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func shutdown(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

func waitDone(t *testing.T, job *Job) {
	t.Helper()
	select {
	case <-job.done:
	case <-time.After(2 * time.Minute):
		t.Fatal("job did not finish")
	}
}

func TestServeLifecycleAndCacheProbe(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, dir)
	defer shutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(tinyReq())
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	var status struct{ ID, State string }
	json.NewDecoder(resp.Body).Decode(&status)
	resp.Body.Close()
	if status.ID == "" || status.State != "accepted" {
		t.Fatalf("submit response = %+v", status)
	}

	// Poll until done, then fetch the result.
	var cold []byte
	deadline := time.Now().Add(2 * time.Minute)
	for {
		r, err := http.Get(ts.URL + "/jobs/" + status.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if r.StatusCode == http.StatusOK {
			cold = b
			break
		}
		if r.StatusCode != http.StatusAccepted {
			t.Fatalf("result status = %d body %s", r.StatusCode, b)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never completed")
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !strings.Contains(string(cold), `"schema_version"`) {
		t.Fatalf("result carries no schema version: %.200s", cold)
	}

	simsAfterCold := s.Counters().Simulations
	if simsAfterCold != 1 {
		t.Fatalf("simulations after cold run = %d, want 1", simsAfterCold)
	}

	// The same request through the synchronous endpoint: served from
	// cache, byte-identical, no new simulation (the counter probe).
	r2, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	warm, _ := io.ReadAll(r2.Body)
	r2.Body.Close()
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("cached /run status = %d", r2.StatusCode)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatal("cached response is not byte-identical to the cold one")
	}
	if got := s.Counters().Simulations; got != simsAfterCold {
		t.Fatalf("cached repeat re-simulated: counter %d -> %d", simsAfterCold, got)
	}

	// A case-variant spelling canonicalizes to the same job.
	variant, _ := json.Marshal(Request{Kind: "sim", Apps: []string{"fft"}, Nodes: 8, Quick: true})
	r3, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(variant))
	if err != nil {
		t.Fatal(err)
	}
	warm2, _ := io.ReadAll(r3.Body)
	r3.Body.Close()
	if !bytes.Equal(cold, warm2) {
		t.Fatal("case-variant request did not dedup to the same bytes")
	}
	if got := s.Counters().Simulations; got != simsAfterCold {
		t.Fatalf("case-variant re-simulated: counter %d -> %d", simsAfterCold, got)
	}
}

func TestServeBadRequests(t *testing.T) {
	s := newTestServer(t, t.TempDir())
	defer shutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		name, body string
	}{
		{"missing kind", `{}`},
		{"unknown kind", `{"kind":"frobnicate"}`},
		{"unknown app", `{"kind":"sim","apps":["nope"]}`},
		{"sim wants one app", `{"kind":"sim","apps":["FFT","LU"]}`},
		{"bad node count", `{"kind":"sim","apps":["FFT"],"nodes":2}`},
		{"baseline+mirror", `{"kind":"sim","apps":["FFT"],"baseline":true,"mirror":true}`},
		{"chaos with apps", `{"kind":"chaos","apps":["FFT"]}`},
		{"unknown study", `{"kind":"experiment","study":"nope"}`},
		{"unknown field", `{"kind":"sim","apps":["FFT"],"bogus":1}`},
		{"not json", `{{{`},
	} {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, resp.StatusCode)
		}
	}
	if got := s.Counters().Accepted; got != 0 {
		t.Errorf("bad requests were admitted: accepted = %d", got)
	}
}

// schedulerless builds a Server with no scheduler goroutine: jobs queue
// but never run, which lets admission control be tested deterministically.
func schedulerless(t *testing.T, queueCap int) *Server {
	t.Helper()
	dir := t.TempDir()
	journal, _, err := OpenJournal(dir, t.Logf, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { journal.Close() })
	cache, err := OpenCache(dir+"/cache", nil)
	if err != nil {
		t.Fatal(err)
	}
	return &Server{
		opts:    Options{StateDir: dir, Log: t.Logf}.withDefaults(),
		journal: journal,
		cache:   cache,
		jobs:    make(map[string]*Job),
		queue:   make(chan *Job, queueCap),
		ready:   true,
	}
}

func TestServeAdmissionControl(t *testing.T) {
	s := schedulerless(t, 1)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	if resp := post(`{"kind":"sim","apps":["FFT"],"quick":true,"nodes":8}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d, want 202", resp.StatusCode)
	}
	// Queue (cap 1) is now full: a different job must bounce with 429 and
	// a Retry-After hint.
	resp := post(`{"kind":"sim","apps":["LU"],"quick":true,"nodes":8}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// Resubmitting the queued job is NOT a rejection: it dedups.
	if resp := post(`{"kind":"sim","apps":["FFT"],"quick":true,"nodes":8}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("dedup submit = %d, want 202", resp.StatusCode)
	}
	c := s.Counters()
	if c.Accepted != 1 || c.Rejected != 1 || c.Deduped != 1 {
		t.Fatalf("counters = %+v, want accepted 1 rejected 1 deduped 1", c)
	}
}

func TestServeHealthAndDrain(t *testing.T) {
	s := newTestServer(t, t.TempDir())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("healthz = %d", got)
	}
	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("readyz = %d", got)
	}
	if got := get("/statusz"); got != http.StatusOK {
		t.Fatalf("statusz = %d", got)
	}

	shutdown(t, s)
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("healthz while draining = %d (liveness must survive drain)", got)
	}
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz after drain = %d, want 503", got)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"kind":"sim","apps":["FFT"],"quick":true,"nodes":8}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503", resp.StatusCode)
	}
}

func TestServeDrainParksInFlightJob(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, dir)
	// A 12-app sweep is long enough that drain lands mid-job.
	job, fresh, err := s.Submit(Request{Kind: "sweep", Nodes: 8, Quick: true})
	if err != nil || !fresh {
		t.Fatalf("submit: fresh=%v err=%v", fresh, err)
	}
	time.Sleep(200 * time.Millisecond)
	start := time.Now()
	shutdown(t, s)
	if d := time.Since(start); d > 30*time.Second {
		t.Fatalf("drain took %v", d)
	}

	// Restart on the same state dir: the parked job completes, and its
	// bytes match a direct execution.
	s2 := newTestServer(t, dir)
	defer shutdown(t, s2)
	job2, ok := s2.Job(job.ID)
	if !ok {
		t.Fatal("parked job lost across restart")
	}
	waitDone(t, job2)
	got, ok := s2.Result(job.ID)
	if !ok {
		t.Fatal("no result after restart")
	}
	req, _, err := Canonicalize(Request{Kind: "sweep", Nodes: 8, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Execute(context.Background(), req, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("recovered result differs from direct execution")
	}
}

func TestServePanicContained(t *testing.T) {
	s := &Server{opts: Options{Log: t.Logf}.withDefaults()}
	// A request Canonicalize would reject (2 nodes under a group of 8):
	// hand it straight to the executor the way an admission bug would.
	job := &Job{
		JobState: JobState{ID: "bad"},
		req:      Request{Kind: "sim", Apps: []string{"FFT"}, Nodes: 2, Scale: 100, Quick: true},
	}
	_, err := s.execute(context.Background(), job)
	if err == nil || !strings.Contains(err.Error(), "job panicked") {
		t.Fatalf("panic not contained: err = %v", err)
	}
}

func TestBackoffCapped(t *testing.T) {
	base, cap := 50*time.Millisecond, 2*time.Second
	want := []time.Duration{50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond}
	for i, w := range want {
		if got := backoff(i+1, base, cap); got != w {
			t.Errorf("backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
	if got := backoff(30, base, cap); got != cap {
		t.Errorf("backoff(30) = %v, want cap %v", got, cap)
	}
}

func TestIsTransient(t *testing.T) {
	if IsTransient(io.ErrUnexpectedEOF) {
		t.Fatal("plain error is transient")
	}
	if !IsTransient(transientError{io.ErrUnexpectedEOF}) {
		t.Fatal("wrapped transient not detected")
	}
}
