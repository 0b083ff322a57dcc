package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"revive/internal/obs"
)

// Options configures a Server. The zero value of every field selects a
// sensible default; StateDir is required.
type Options struct {
	// StateDir is the persistence root: journal, snapshots and cache.
	StateDir string
	// MaxQueue bounds the admission queue; submissions past it get 429
	// with Retry-After (default 64).
	MaxQueue int
	// JobTimeout is the per-job deadline; a job that outlives it fails
	// with a typed deadline error (default 10m).
	JobTimeout time.Duration
	// MaxEvents is the per-simulation event budget (sim.RunGuarded's
	// watchdog): a pathological cell errors out instead of hanging the
	// daemon (default 4e9; 0 keeps the stall guard only).
	MaxEvents uint64
	// Parallelism is the intra-job worker count on the sweep pool
	// (default: one per CPU). Responses are byte-identical at every
	// setting.
	Parallelism int
	// RetryMax bounds attempts for transiently failing jobs (default 4).
	RetryMax int
	// RetryBase and RetryCap shape the capped-exponential backoff
	// between attempts (defaults 50ms and 2s).
	RetryBase, RetryCap time.Duration
	// SnapshotEvery compacts the journal into a fresh snapshot bundle
	// after this many records (default 32).
	SnapshotEvery int
	// Log receives operational lines (default: discard).
	Log func(format string, a ...any)
	// Logger receives structured operational records with job-ID
	// correlation — the production logging surface; Log remains for
	// plain-line consumers (default: discard).
	Logger *slog.Logger
	// Metrics is the registry the daemon instruments itself on, exposed
	// at GET /metrics. Use one registry per Server — New registers
	// GaugeFuncs closing over this server (default: a fresh registry).
	Metrics *obs.Registry
	// EventBuffer bounds each job's progress-event ring: a reconnecting
	// SSE client can replay at most this many events (default 1024).
	EventBuffer int

	// crash arms the deterministic kill switch (tests only).
	crash *crash
}

func (o Options) withDefaults() Options {
	if o.MaxQueue == 0 {
		o.MaxQueue = 64
	}
	if o.JobTimeout == 0 {
		o.JobTimeout = 10 * time.Minute
	}
	if o.MaxEvents == 0 {
		o.MaxEvents = 4e9
	}
	if o.RetryMax == 0 {
		o.RetryMax = 4
	}
	if o.RetryBase == 0 {
		o.RetryBase = 50 * time.Millisecond
	}
	if o.RetryCap == 0 {
		o.RetryCap = 2 * time.Second
	}
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = 32
	}
	if o.Log == nil {
		o.Log = func(string, ...any) {}
	}
	if o.Logger == nil {
		o.Logger = obs.Discard()
	}
	if o.Metrics == nil {
		o.Metrics = obs.NewRegistry()
	}
	if o.EventBuffer == 0 {
		o.EventBuffer = 1024
	}
	return o
}

// Job is the in-memory view of one submitted job. The durable view is
// JobState; the two are reconciled through the journal.
type Job struct {
	JobState
	req    Request
	done   chan struct{} // closed on a terminal transition (done/failed)
	events *obs.Ring     // progress events for SSE; set once at creation, nil on hand-built jobs
}

func (j *Job) terminal() bool { return j.State == "done" || j.State == "failed" }

// Counters are the server's observable totals (GET /statusz).
type Counters struct {
	Accepted    uint64 `json:"accepted"`    // jobs admitted (new content hashes)
	Deduped     uint64 `json:"deduped"`     // submissions folded into an existing job
	Rejected    uint64 `json:"rejected"`    // 429 backpressure responses
	Completed   uint64 `json:"completed"`   // jobs that reached done
	Failed      uint64 `json:"failed"`      // jobs that reached failed
	Retried     uint64 `json:"retried"`     // transient-failure retries
	Simulations uint64 `json:"simulations"` // actual simulation executions (the cache probe)
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
}

// Server is the daemon: journal + cache + a single scheduler goroutine
// draining a bounded admission queue. HTTP handlers are thin translations
// onto it.
type Server struct {
	opts    Options
	journal *Journal
	cache   *Cache
	metrics *serveMetrics // nil on hand-built servers; every use is guarded

	mu       sync.Mutex
	jobs     map[string]*Job
	queue    chan *Job
	counters Counters
	ready    bool
	draining bool

	runCtx    context.Context // cancelled on drain: cuts the in-flight job
	cancelRun context.CancelFunc
	schedDone chan struct{} // closed when the scheduler goroutine exits
}

// New opens the state directory, recovers the journal (replaying the WAL
// tail and re-queuing interrupted jobs), compacts a fresh snapshot, and
// starts the scheduler. The daemon is ready when New returns.
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	if opts.StateDir == "" {
		return nil, errors.New("serve: StateDir is required")
	}
	journal, state, err := OpenJournal(opts.StateDir, opts.Log, opts.crash)
	if err != nil {
		return nil, err
	}
	cache, err := OpenCache(filepath.Join(opts.StateDir, "cache"), opts.crash)
	if err != nil {
		journal.Close()
		return nil, err
	}
	runCtx, cancelRun := context.WithCancel(context.Background())
	s := &Server{
		opts:      opts,
		journal:   journal,
		cache:     cache,
		metrics:   newServeMetrics(opts.Metrics),
		jobs:      make(map[string]*Job, len(state)),
		queue:     make(chan *Job, opts.MaxQueue),
		runCtx:    runCtx,
		cancelRun: cancelRun,
		schedDone: make(chan struct{}),
	}
	journal.metrics = s.metrics
	cache.metrics = s.metrics
	s.registerGauges()
	s.slogger().Info("journal recovered",
		"jobs", len(state), "seq", journal.Seq(),
		"replayed", journal.Replayed, "tail_skipped", journal.TailSkipped,
		"fell_back", journal.FellBack)

	// Recovery: rebuild the in-memory table and re-queue interrupted
	// work in admission order. A job the journal saw running (or
	// accepted) when the daemon died is simply not finished — determinism
	// means re-running it lands the identical bytes, so requeueing is
	// exactly-once as observed by clients. A done job whose cache entry
	// vanished is re-queued too: the journal is the authority on what
	// completed, the cache only memoizes the bytes.
	var requeue []*Job
	for _, js := range state {
		var req Request
		if err := json.Unmarshal(js.Req, &req); err != nil {
			opts.Log("serve: dropping job %.12s with unparseable request: %v", js.ID, err)
			continue
		}
		job := &Job{JobState: *js, req: req, done: make(chan struct{}), events: s.newJobRing()}
		if job.terminal() {
			close(job.done)
		}
		s.jobs[job.ID] = job
		switch {
		case job.State == "accepted" || job.State == "running":
			if cache.Has(job.ID) {
				// The crash landed between the cache write and the done
				// record: the result bytes are already durable, so journal
				// the completion instead of re-simulating.
				if err := journal.Append(&Record{Op: "done", Job: job.ID}); err == nil {
					job.State = "done"
					job.Err = ""
					close(job.done)
					s.counters.Completed++
					s.slogger().Info("job completed from durable result at recovery", "job", job.ID)
					continue
				}
			}
			requeue = append(requeue, job)
		case job.State == "done" && !cache.Has(job.ID):
			opts.Log("serve: job %.12s done but result missing from cache — re-queuing", job.ID)
			s.slogger().Warn("job done but result missing from cache — re-queuing", "job", job.ID)
			requeue = append(requeue, job)
		}
	}
	sortJobs(requeue)
	for _, job := range requeue {
		if !job.terminal() && job.State != "accepted" {
			job.State = "accepted"
		}
		if job.terminal() {
			// Done-but-missing-result: reopen the job.
			job.State = "accepted"
			job.done = make(chan struct{})
		}
		s.jobEvent(job, "recovered", lifecycleFrame{Job: job.ID, Kind: job.req.Kind, State: "accepted"})
		s.slogger().Info("job re-queued after restart", "job", job.ID, "seq", job.Seq)
		select {
		case s.queue <- job:
		default:
			// More interrupted jobs than queue slots: keep them accepted;
			// they will be re-queued by the next restart or resubmission.
			opts.Log("serve: queue full during recovery; job %.12s parked", job.ID)
		}
	}
	// Terminal recovered jobs stream their state and close; a live job's
	// ring stays open for the scheduler.
	for _, job := range s.jobs {
		if job.terminal() {
			frame := lifecycleFrame{Job: job.ID, Kind: job.req.Kind, State: job.State, Err: job.Err}
			if job.State == "done" {
				frame.Result = "/jobs/" + job.ID + "/result"
			}
			s.jobEvent(job, "recovered", frame)
			job.events.Close()
		}
	}
	if len(state) > 0 || journal.FellBack || journal.TailSkipped > 0 {
		// Compact what recovery established so the next restart replays a
		// short tail (and a fallen-back chain gets a sound latest.json).
		if err := journal.Snapshot(snapshotView(s.jobs)); err != nil && !errors.Is(err, ErrKilled) {
			journal.Close()
			return nil, err
		}
	}
	s.ready = true
	go s.schedule()
	return s, nil
}

// registerGauges exports the daemon's live state — queue, job table,
// journal position, cache footprint — as GaugeFuncs read at scrape
// time. The closures take s.mu where the underlying structure demands
// it; /metrics never races the scheduler.
func (s *Server) registerGauges() {
	reg := s.opts.Metrics
	reg.GaugeFunc("revive_queue_depth", "Jobs waiting in the admission queue.",
		func() float64 { return float64(len(s.queue)) })
	reg.GaugeFunc("revive_queue_capacity", "Admission queue bound.",
		func() float64 { return float64(cap(s.queue)) })
	reg.GaugeFunc("revive_jobs_tracked", "Jobs in the in-memory table.",
		func() float64 { s.mu.Lock(); defer s.mu.Unlock(); return float64(len(s.jobs)) })
	reg.GaugeFunc("revive_journal_seq", "Last assigned journal record sequence.",
		func() float64 { s.mu.Lock(); defer s.mu.Unlock(); return float64(s.journal.Seq()) })
	reg.GaugeFunc("revive_journal_generation", "Sequence covered by the newest snapshot bundle.",
		func() float64 { s.mu.Lock(); defer s.mu.Unlock(); return float64(s.journal.Generation()) })
	reg.GaugeFunc("revive_journal_pending_records", "WAL records since the last snapshot.",
		func() float64 { s.mu.Lock(); defer s.mu.Unlock(); return float64(s.journal.Pending()) })
	reg.GaugeFunc("revive_journal_replayed_records", "Records replayed from the WAL at the last open.",
		func() float64 { return float64(s.journal.Replayed) })
	reg.GaugeFunc("revive_journal_tail_skipped", "Corrupt/torn records skipped at the last open.",
		func() float64 { return float64(s.journal.TailSkipped) })
	reg.GaugeFunc("revive_cache_entries", "Result files in the content-addressed cache.",
		func() float64 { n, _ := s.cache.Usage(); return float64(n) })
	reg.GaugeFunc("revive_cache_size_bytes", "Total bytes of cached results.",
		func() float64 { _, b := s.cache.Usage(); return float64(b) })
}

// slogger returns the structured logger (never nil, even on hand-built
// servers that skipped withDefaults).
func (s *Server) slogger() *slog.Logger {
	if s.opts.Logger != nil {
		return s.opts.Logger
	}
	return obs.Discard()
}

// sortJobs orders jobs by admission sequence (deterministic requeue).
func sortJobs(jobs []*Job) {
	for i := 1; i < len(jobs); i++ {
		for k := i; k > 0 && jobs[k].Seq < jobs[k-1].Seq; k-- {
			jobs[k], jobs[k-1] = jobs[k-1], jobs[k]
		}
	}
}

// snapshotView projects the in-memory table into journal state.
func snapshotView(jobs map[string]*Job) map[string]*JobState {
	out := make(map[string]*JobState, len(jobs))
	for id, j := range jobs {
		js := j.JobState
		out[id] = &js
	}
	return out
}

// Submit admits one request: canonicalize, dedup against the live table,
// serve a cache hit instantly, or journal + enqueue. It returns the job
// (possibly pre-existing) and whether it was newly admitted.
func (s *Server) Submit(req Request) (*Job, bool, error) {
	req, canon, err := Canonicalize(req)
	if err != nil {
		return nil, false, err
	}
	id := ID(canon)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, false, errDraining
	}
	if job, ok := s.jobs[id]; ok {
		s.counters.Deduped++
		if s.metrics != nil {
			s.metrics.jobsDeduped.Inc()
		}
		s.slogger().Info("job deduped", "job", id, "kind", req.Kind)
		return job, false, nil
	}
	job := &Job{
		JobState: JobState{ID: id, State: "accepted", Req: canon},
		req:      req,
		done:     make(chan struct{}),
		events:   s.newJobRing(),
	}
	if _, ok := s.cache.Get(id); ok {
		// A previous life of the daemon (or an identical request under
		// the same schema) already computed this job: complete it
		// instantly, journaled, without re-simulation.
		if err := s.journalAppend(&Record{Op: "accepted", Job: id, Req: canon}, job); err != nil {
			return nil, false, err
		}
		if err := s.journalAppend(&Record{Op: "done", Job: id}, job); err != nil {
			return nil, false, err
		}
		job.State = "done"
		close(job.done)
		s.jobs[id] = job
		s.counters.Accepted++
		s.counters.Completed++
		if s.metrics != nil {
			s.metrics.jobsAccepted.Inc()
			s.metrics.jobsCompleted.Inc()
		}
		s.jobEvent(job, "accepted", lifecycleFrame{Job: id, Kind: req.Kind, State: "accepted"})
		s.jobEvent(job, "done", lifecycleFrame{Job: id, Kind: req.Kind, State: "done", Result: "/jobs/" + id + "/result"})
		job.events.Close()
		s.slogger().Info("job served from cache", "job", id, "kind", req.Kind, "seq", job.Seq)
		return job, true, nil
	}
	select {
	case s.queue <- job:
	default:
		s.counters.Rejected++
		if s.metrics != nil {
			s.metrics.jobsRejected.Inc()
		}
		s.slogger().Warn("job rejected: queue full", "job", id, "kind", req.Kind, "queue_depth", len(s.queue))
		return nil, false, errQueueFull
	}
	if err := s.journalAppend(&Record{Op: "accepted", Job: id, Req: canon}, job); err != nil {
		return nil, false, err
	}
	s.jobs[id] = job
	s.counters.Accepted++
	if s.metrics != nil {
		s.metrics.jobsAccepted.Inc()
	}
	s.jobEvent(job, "accepted", lifecycleFrame{Job: id, Kind: req.Kind, State: "accepted"})
	s.slogger().Info("job accepted", "job", id, "kind", req.Kind, "seq", job.Seq)
	return job, true, nil
}

var (
	errQueueFull = errors.New("serve: admission queue full")
	errDraining  = errors.New("serve: draining")
)

// journalAppend appends one record under s.mu, stamping the job's
// admission seq from its accepted record.
func (s *Server) journalAppend(rec *Record, job *Job) error {
	if err := s.journal.Append(rec); err != nil {
		return err
	}
	if rec.Op == "accepted" && job != nil && job.Seq == 0 {
		job.Seq = rec.Seq
	}
	s.maybeSnapshotLocked()
	return nil
}

// maybeSnapshotLocked compacts the journal when enough records accrued.
func (s *Server) maybeSnapshotLocked() {
	if s.journal.Pending() < s.opts.SnapshotEvery {
		return
	}
	if err := s.journal.Snapshot(snapshotView(s.jobs)); err != nil && !errors.Is(err, ErrKilled) {
		s.opts.Log("serve: snapshot: %v", err)
	}
}

// schedule is the single scheduler goroutine: it drains the admission
// queue one job at a time (each job parallelizes internally on the sweep
// pool) until drained or killed.
func (s *Server) schedule() {
	defer close(s.schedDone)
	for {
		select {
		case <-s.runCtx.Done():
			return
		case job := <-s.queue:
			if !s.process(job) {
				return // journal dead (crash injection): the daemon is gone
			}
		}
	}
}

// process runs one job through its attempt loop: journal running, execute
// under the deadline + event budget, cache the bytes, journal the
// terminal transition. Transient failures retry with capped backoff.
// Returns false when the journal has died (simulated kill).
func (s *Server) process(job *Job) bool {
	start := time.Now()
	for {
		s.mu.Lock()
		if s.draining {
			// Drain landed between dequeue and start: leave the job
			// accepted; the shutdown snapshot journals it for the next life.
			s.mu.Unlock()
			return true
		}
		job.State = "running"
		job.Attempts++
		err := s.journalAppend(&Record{Op: "running", Job: job.ID, Attempt: job.Attempts}, job)
		attempt := job.Attempts
		s.mu.Unlock()
		if errors.Is(err, ErrKilled) {
			return false
		}
		s.jobEvent(job, "running", lifecycleFrame{
			Job: job.ID, Kind: job.req.Kind, State: "running",
			Attempt: attempt, Classes: classLegend(),
		})
		s.slogger().Info("job running", "job", job.ID, "kind", job.req.Kind, "attempt", attempt)

		ctx, cancel := context.WithTimeout(s.runCtx, s.opts.JobTimeout)
		data, runErr := s.execute(ctx, job)
		cancel()

		s.mu.Lock()
		switch {
		case runErr == nil:
			if err := s.cache.Put(job.ID, data); err != nil {
				// Result computed but not durable: treat as transient
				// (the disk may recover) unless the kill switch fired.
				if errors.Is(err, ErrKilled) {
					s.mu.Unlock()
					return false
				}
				runErr = transientError{err}
				break
			}
			if err := s.journalAppend(&Record{Op: "done", Job: job.ID}, job); err != nil {
				s.mu.Unlock()
				return !errors.Is(err, ErrKilled)
			}
			job.State = "done"
			job.Err = ""
			s.counters.Completed++
			close(job.done)
			s.mu.Unlock()
			if s.metrics != nil {
				s.metrics.jobsCompleted.Inc()
			}
			s.metrics.observeJobDuration(job.req.Kind, time.Since(start))
			s.jobEvent(job, "done", lifecycleFrame{
				Job: job.ID, Kind: job.req.Kind, State: "done",
				Result: "/jobs/" + job.ID + "/result",
			})
			if job.events != nil {
				job.events.Close()
			}
			s.slogger().Info("job done", "job", job.ID, "kind", job.req.Kind,
				"attempts", attempt, "duration", time.Since(start), "bytes", len(data))
			return true
		case errors.Is(runErr, context.Canceled):
			// Drain cancellation: not a failure. Put the job back to
			// accepted; the shutdown snapshot (or restart replay) re-queues.
			// The ring stays open — streams are cut by runCtx, and the next
			// life's ring resumes the story with a "recovered" event.
			job.State = "accepted"
			err := s.journalAppend(&Record{Op: "retry", Job: job.ID, Attempt: job.Attempts, Err: "interrupted by shutdown"}, job)
			s.mu.Unlock()
			s.slogger().Info("job parked by drain", "job", job.ID, "attempt", attempt)
			return !errors.Is(err, ErrKilled)
		}

		if runErr != nil && IsTransient(runErr) && job.Attempts < s.opts.RetryMax {
			job.State = "accepted"
			job.Err = runErr.Error()
			s.counters.Retried++
			err := s.journalAppend(&Record{Op: "retry", Job: job.ID, Attempt: job.Attempts, Err: job.Err}, job)
			s.mu.Unlock()
			if errors.Is(err, ErrKilled) {
				return false
			}
			if s.metrics != nil {
				s.metrics.jobRetries.Inc()
			}
			s.jobEvent(job, "retry", lifecycleFrame{
				Job: job.ID, Kind: job.req.Kind, State: "accepted",
				Attempt: attempt, Err: runErr.Error(),
			})
			s.slogger().Warn("job retrying after transient failure", "job", job.ID,
				"attempt", attempt, "error", runErr.Error())
			select {
			case <-time.After(backoff(job.Attempts, s.opts.RetryBase, s.opts.RetryCap)):
				continue
			case <-s.runCtx.Done():
				return true
			}
		}

		if runErr == nil {
			// Unreachable: success paths returned above.
			s.mu.Unlock()
			return true
		}
		job.State = "failed"
		job.Err = runErr.Error()
		s.counters.Failed++
		err = s.journalAppend(&Record{Op: "failed", Job: job.ID, Err: job.Err}, job)
		close(job.done)
		s.mu.Unlock()
		if s.metrics != nil {
			s.metrics.jobsFailed.Inc()
		}
		s.metrics.observeJobDuration(job.req.Kind, time.Since(start))
		s.jobEvent(job, "failed", lifecycleFrame{
			Job: job.ID, Kind: job.req.Kind, State: "failed", Err: runErr.Error(),
		})
		if job.events != nil {
			job.events.Close()
		}
		s.slogger().Error("job failed", "job", job.ID, "kind", job.req.Kind,
			"attempts", attempt, "duration", time.Since(start), "error", runErr.Error())
		return !errors.Is(err, ErrKilled)
	}
}

// execute runs the job's adapter, counting an actual simulation (the
// cache-probe counter: a served repeat must not move it). A panicking job
// is contained here — it becomes a permanent job failure, never a dead
// scheduler: Canonicalize should have rejected anything unbuildable, but
// the daemon must outlive its own admission bugs.
func (s *Server) execute(ctx context.Context, job *Job) (data []byte, err error) {
	s.mu.Lock()
	s.counters.Simulations++
	s.mu.Unlock()
	if s.metrics != nil {
		s.metrics.simulations.Inc()
	}
	defer func() {
		if r := recover(); r != nil {
			s.opts.Log("serve: job %.12s panicked: %v", job.ID, r)
			s.slogger().Error("job panicked", "job", job.ID, "panic", fmt.Sprint(r))
			if s.metrics != nil {
				s.metrics.jobPanics.Inc()
			}
			data, err = nil, fmt.Errorf("job panicked: %v", r)
		}
	}()
	data, err = ExecuteObserved(ctx, job.req, s.opts.Parallelism, s.opts.MaxEvents, s.progressSink(job))
	if err == nil && ctx.Err() == context.DeadlineExceeded {
		err = fmt.Errorf("job deadline %v exceeded", s.opts.JobTimeout)
	}
	if errors.Is(err, context.DeadlineExceeded) {
		err = fmt.Errorf("job deadline %v exceeded: %w", s.opts.JobTimeout, err)
	}
	return data, err
}

// Result returns a completed job's response bytes (from the cache).
func (s *Server) Result(id string) ([]byte, bool) {
	return s.cache.Get(id)
}

// Job looks up a job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Counters returns a snapshot of the server totals.
func (s *Server) Counters() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.counters
	c.CacheHits = s.cache.Hits()
	c.CacheMisses = s.cache.Misses()
	return c
}

// Ready reports whether the daemon accepts work (recovery finished, not
// draining).
func (s *Server) Ready() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ready && !s.draining
}

// Shutdown drains the daemon: stop admitting, cancel the in-flight job at
// its next cell boundary, journal everything still pending, write a final
// snapshot and release the journal. Interrupted jobs restart as accepted
// in the next life. Safe to call once; ctx bounds the wait.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	s.mu.Unlock()

	s.slogger().Info("draining: admission stopped, cutting in-flight work at the next cell boundary")
	s.cancelRun()
	select {
	case <-s.schedDone:
	case <-ctx.Done():
		return ctx.Err()
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	// Park everything non-terminal as accepted — including jobs still
	// sitting in the queue channel — then persist the full table.
	for _, job := range s.jobs {
		if !job.terminal() && job.State != "accepted" {
			job.State = "accepted"
		}
	}
	var err error
	if e := s.journal.Snapshot(snapshotView(s.jobs)); e != nil && !errors.Is(e, ErrKilled) {
		err = e
	}
	if e := s.journal.Close(); err == nil && e != nil && !errors.Is(e, ErrKilled) {
		err = e
	}
	return err
}

// --- HTTP surface ---

// Handler returns the daemon's HTTP mux:
//
//	POST /jobs            submit (202 accepted / 200 done / 429 backpressure)
//	GET  /jobs/{id}       job status JSON
//	GET  /jobs/{id}/result  completed response bytes (byte-identical forever)
//	GET  /jobs/{id}/events  live progress as SSE (Last-Event-ID replay)
//	POST /run             submit and wait: the response is the result bytes
//	GET  /healthz         process liveness
//	GET  /readyz          admission readiness (503 while draining)
//	GET  /statusz         counters + queue/journal/cache state JSON
//	GET  /metrics         Prometheus text exposition
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		s.handleSubmit(w, r, false)
	})
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /run", func(w http.ResponseWriter, r *http.Request) {
		s.handleSubmit(w, r, true)
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		job, ok := s.Job(r.PathValue("id"))
		if !ok {
			http.Error(w, "unknown job", http.StatusNotFound)
			return
		}
		s.writeStatus(w, job, http.StatusOK)
	})
	mux.HandleFunc("GET /jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		job, ok := s.Job(id)
		if !ok {
			http.Error(w, "unknown job", http.StatusNotFound)
			return
		}
		s.mu.Lock()
		state := job.State
		jerr := job.Err
		s.mu.Unlock()
		switch state {
		case "done":
			data, ok := s.Result(id)
			if !ok {
				http.Error(w, "result missing from cache; resubmit", http.StatusGone)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.Write(data)
		case "failed":
			http.Error(w, "job failed: "+jerr, http.StatusUnprocessableEntity)
		default:
			w.Header().Set("Retry-After", "1")
			s.writeStatus(w, job, http.StatusAccepted)
		}
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if !s.Ready() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("GET /statusz", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		type statusz struct {
			Counters Counters `json:"counters"`
			Jobs     int      `json:"jobs"`
			Queue    int      `json:"queue_depth"`
			QueueCap int      `json:"queue_cap"`
			Journal  struct {
				Seq         uint64 `json:"seq"`
				Generation  uint64 `json:"generation"`
				Pending     int    `json:"pending_records"`
				Replayed    int    `json:"replayed_records"`
				TailSkipped int    `json:"tail_skipped"`
				FellBack    bool   `json:"fell_back,omitempty"`
			} `json:"journal"`
			Cache struct {
				Entries int   `json:"entries"`
				Bytes   int64 `json:"bytes"`
			} `json:"cache"`
		}
		var st statusz
		st.Counters = s.counters
		st.Jobs = len(s.jobs)
		st.Queue = len(s.queue)
		st.QueueCap = cap(s.queue)
		st.Journal.Seq = s.journal.Seq()
		st.Journal.Generation = s.journal.Generation()
		st.Journal.Pending = s.journal.Pending()
		st.Journal.Replayed = s.journal.Replayed
		st.Journal.TailSkipped = s.journal.TailSkipped
		st.Journal.FellBack = s.journal.FellBack
		s.mu.Unlock()
		st.Counters.CacheHits = s.cache.Hits()
		st.Counters.CacheMisses = s.cache.Misses()
		st.Cache.Entries, st.Cache.Bytes = s.cache.Usage()
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(st)
	})
	return mux
}

// handleSubmit admits a request; wait selects the synchronous POST /run
// behavior (block until terminal, answer with the result bytes).
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request, wait bool) {
	var req Request
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	job, _, err := s.Submit(req)
	switch {
	case errors.Is(err, errQueueFull):
		w.Header().Set("Retry-After", s.retryAfter())
		http.Error(w, "queue full; retry later", http.StatusTooManyRequests)
		return
	case errors.Is(err, errDraining):
		http.Error(w, "draining; retry against the restarted daemon", http.StatusServiceUnavailable)
		return
	case errors.Is(err, ErrKilled):
		http.Error(w, "journal unavailable", http.StatusInternalServerError)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if !wait {
		s.mu.Lock()
		code := http.StatusAccepted
		if job.terminal() {
			code = http.StatusOK
		}
		s.mu.Unlock()
		s.writeStatus(w, job, code)
		return
	}
	select {
	case <-job.done:
	case <-r.Context().Done():
		w.Header().Set("Retry-After", "1")
		s.writeStatus(w, job, http.StatusAccepted)
		return
	}
	s.mu.Lock()
	state, jerr := job.State, job.Err
	s.mu.Unlock()
	if state == "failed" {
		http.Error(w, "job failed: "+jerr, http.StatusUnprocessableEntity)
		return
	}
	data, ok := s.Result(job.ID)
	if !ok {
		http.Error(w, "result missing from cache; resubmit", http.StatusGone)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// retryAfter estimates the backpressure hint from the queue depth: one
// second per queued job, floored at 1.
func (s *Server) retryAfter() string {
	d := len(s.queue)
	if d < 1 {
		d = 1
	}
	return fmt.Sprint(d)
}

// writeStatus renders a job's status JSON.
func (s *Server) writeStatus(w http.ResponseWriter, job *Job, code int) {
	s.mu.Lock()
	resp := struct {
		ID       string `json:"id"`
		State    string `json:"state"`
		Attempts int    `json:"attempts,omitempty"`
		Err      string `json:"error,omitempty"`
		Result   string `json:"result,omitempty"`
	}{ID: job.ID, State: job.State, Attempts: job.Attempts, Err: job.Err}
	if job.State == "done" {
		resp.Result = "/jobs/" + job.ID + "/result"
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(resp)
}
