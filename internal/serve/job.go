package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"revive"
	"revive/internal/chaos"
	"revive/internal/stats"
	"revive/internal/sweep"
	"revive/internal/trace"
)

// ProgressSink receives live progress from an executing job. Sample
// delivers one per-epoch trace.Sample per committed checkpoint of a
// sim/sweep cell (labeled with the cell's application); Cell delivers
// sweep cell lifecycle boundaries ("start"/"finish"). Either field may
// be nil. Callbacks arrive on sweep worker goroutines, possibly
// concurrently, and must not block — they feed the SSE event rings.
// Chaos and experiment jobs report no per-epoch progress (their inner
// loops predate the hook); they still get lifecycle events.
type ProgressSink struct {
	Sample func(app string, smp trace.Sample)
	Cell   func(app string, index, of int, phase string)
}

// Request is one job submission. Kind selects the adapter:
//
//	sim         one application on one machine (Apps must name exactly one)
//	sweep       one machine per application, fanned out on the sweep pool
//	chaos       a deterministic fault-campaign batch (internal/chaos)
//	experiment  a named experiment study (revive.RunStudy)
//
// The zero values of the optional fields select the evaluation-regime
// defaults (16 nodes, scale 100, 7+1 parity). Canonicalize fills the
// defaults in, so two requests that differ only in spelling out a default
// hash to the same job.
type Request struct {
	Kind string `json:"kind"`

	// sim / sweep / experiment
	Apps     []string `json:"apps,omitempty"`
	Nodes    int      `json:"nodes,omitempty"`
	Scale    int      `json:"scale,omitempty"`
	Quick    bool     `json:"quick,omitempty"`
	Baseline bool     `json:"baseline,omitempty"`
	Mirror   bool     `json:"mirror,omitempty"`
	NoCkpt   bool     `json:"nockpt,omitempty"`

	// Strategy selects the recovery-strategy backend (revive.Strategies;
	// empty canonicalizes to the explicit default "revive", so the
	// strategy is always part of the content address and results from
	// different backends can never share a cache entry). Baseline
	// machines have no backend; baseline requests must leave it unset.
	Strategy string `json:"strategy,omitempty"`

	// experiment
	Study string `json:"study,omitempty"` // revive.Studies

	// chaos
	Campaigns  int     `json:"campaigns,omitempty"`
	Seed       uint64  `json:"seed,omitempty"`
	DropProb   float64 `json:"drop_prob,omitempty"`
	CPULoss    bool    `json:"cpu_loss,omitempty"`
	MemPartial bool    `json:"mem_partial,omitempty"`
}

// Canonicalize validates a request and returns its canonical JSON: the
// normalized struct (defaults applied, app names resolved in request
// order) marshaled with Go's fixed field order. The canonical bytes are
// the job's identity — Hash binds them to the stats schema version to
// form the content address.
func Canonicalize(req Request) (Request, []byte, error) {
	switch req.Kind {
	case "sim", "sweep", "chaos", "experiment":
	case "":
		return req, nil, errors.New("missing job kind")
	default:
		return req, nil, fmt.Errorf("unknown job kind %q (known: sim, sweep, chaos, experiment)", req.Kind)
	}
	if req.Nodes == 0 {
		req.Nodes = 16
	}
	if req.Scale == 0 {
		req.Scale = 100
	}
	// Reject machine shapes the architecture cannot build, at admission
	// time: a bad request must 400, never take the scheduler down.
	group := 8
	if req.Mirror {
		group = 2
	}
	if req.Nodes < 0 || req.Scale < 0 {
		return req, nil, errors.New("nodes and scale must be positive")
	}
	if req.Nodes%group != 0 {
		return req, nil, fmt.Errorf("node count %d is not a multiple of the parity group size %d", req.Nodes, group)
	}
	o := revive.Options{Nodes: req.Nodes, Scale: req.Scale, Quick: req.Quick}
	switch req.Kind {
	case "sim":
		if len(req.Apps) != 1 {
			return req, nil, fmt.Errorf("kind sim wants exactly one app, got %d", len(req.Apps))
		}
	case "sweep":
		if len(req.Apps) == 0 {
			for _, a := range revive.Apps(o) {
				req.Apps = append(req.Apps, a.Label)
			}
		}
	case "experiment":
		known := false
		for _, s := range revive.Studies {
			if s == req.Study {
				known = true
			}
		}
		if !known {
			return req, nil, fmt.Errorf("unknown study %q", req.Study)
		}
	case "chaos":
		if req.Campaigns <= 0 {
			req.Campaigns = 50
		}
		if len(req.Apps) > 0 || req.Study != "" {
			return req, nil, errors.New("chaos jobs take campaigns/seed, not apps or study")
		}
	}
	for i, name := range req.Apps {
		a, ok := resolveApp(name, o)
		if !ok {
			return req, nil, fmt.Errorf("unknown application %q", name)
		}
		req.Apps[i] = a.Label // canonical Table 4 spelling, so "fft" and "FFT" hash alike
	}
	if req.Baseline && req.Mirror {
		return req, nil, errors.New("baseline excludes mirroring")
	}
	if err := revive.ValidateStrategy(req.Strategy); err != nil {
		return req, nil, err
	}
	switch {
	case req.Baseline:
		// A baseline machine has no recovery backend at all.
		if req.Strategy != "" {
			return req, nil, errors.New("baseline excludes a recovery strategy")
		}
	case req.Strategy == "":
		// The default is spelled out so the strategy is always part of
		// the content address: results produced under different backends
		// can never alias to one cache entry.
		req.Strategy = revive.DefaultStrategy
	}
	canon, err := json.Marshal(req)
	if err != nil {
		return req, nil, err
	}
	return req, canon, nil
}

// resolveApp looks an application up by its Table 4 name, exact first,
// then case-insensitively.
func resolveApp(name string, o revive.Options) (revive.App, bool) {
	if a, ok := revive.AppByName(name, o); ok {
		return a, true
	}
	for _, a := range revive.Apps(o) {
		if strings.EqualFold(a.Label, name) {
			return a, true
		}
	}
	return revive.App{}, false
}

// ID returns the content address of a canonical request under the current
// stats schema.
func ID(canonical []byte) string { return Hash(canonical, stats.SchemaVersion) }

// transientError marks a failure worth retrying with backoff (I/O
// hiccups); simulation-level failures are deterministic and permanent.
type transientError struct{ err error }

func (e transientError) Error() string { return e.err.Error() }
func (e transientError) Unwrap() error { return e.err }

// IsTransient reports whether a job error should be retried.
func IsTransient(err error) bool {
	var t transientError
	return errors.As(err, &t)
}

// sweepRow is one application's deterministic result in a sim/sweep
// response: the revive-sim -apps -json row without the wall-clock field.
type sweepRow struct {
	App            string        `json:"app"`
	Nodes          int           `json:"nodes"`
	Mode           string        `json:"mode"`
	ParityVerified *bool         `json:"parity_verified,omitempty"` // absent for baseline
	Stats          *revive.Stats `json:"stats"`
}

// Execute runs one canonicalized job and returns its response bytes —
// deterministic, indent-marshaled JSON with a trailing newline, safe to
// cache by content address. ctx bounds the job: the deadline cuts the
// fan-out at the next cell/campaign boundary (sweep.RunCtx), and every
// simulation additionally runs under the maxEvents watchdog so one
// pathological cell cannot hang the daemon. parallelism is the intra-job
// worker count.
func Execute(ctx context.Context, req Request, parallelism int, maxEvents uint64) ([]byte, error) {
	return ExecuteObserved(ctx, req, parallelism, maxEvents, nil)
}

// ExecuteObserved is Execute with an optional live ProgressSink wired
// into the fan-out. The sink observes execution, never alters it: the
// returned bytes are byte-identical with or without one (the cache and
// the crash harness depend on that).
func ExecuteObserved(ctx context.Context, req Request, parallelism int, maxEvents uint64, sink *ProgressSink) ([]byte, error) {
	o := revive.Options{Nodes: req.Nodes, Scale: req.Scale, Quick: req.Quick,
		Strategy: req.Strategy, Parallelism: parallelism}
	if req.Mirror {
		o.GroupSize = 2
	}
	var result any
	switch req.Kind {
	case "sim", "sweep":
		rows, err := runSweep(ctx, req, o, parallelism, maxEvents, sink)
		if err != nil {
			return nil, err
		}
		result = rows
	case "chaos":
		sum, err := chaos.RunCtx(ctx, chaos.Options{
			Campaigns:    req.Campaigns,
			Seed:         req.Seed,
			Strategy:     req.Strategy,
			Parallelism:  parallelism,
			DropProb:     req.DropProb,
			CPULoss:      req.CPULoss,
			MemPartial:   req.MemPartial,
			FlightEvents: -1, // responses carry outcomes, not flight rings
		})
		if err != nil {
			return nil, err
		}
		result = sum
	case "experiment":
		var apps []revive.App
		for _, name := range req.Apps {
			a, _ := revive.AppByName(name, o)
			apps = append(apps, a)
		}
		res, err := revive.RunStudy(req.Study, o, apps)
		if err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		result = res
	default:
		return nil, fmt.Errorf("unknown job kind %q", req.Kind)
	}
	blob, err := json.MarshalIndent(result, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(blob, '\n'), nil
}

// runSweep executes one machine per requested application on the sweep
// pool, honoring ctx between cells and the event budget within each.
// When sink is live, each cell's machine gets an OnSample hook labeled
// with its application and the pool reports cell boundaries; the
// nil-sink path builds the exact machines it always did.
func runSweep(ctx context.Context, req Request, o revive.Options, parallelism int, maxEvents uint64, sink *ProgressSink) ([]sweepRow, error) {
	cfg := buildConfig(req, o)
	mode := "ReVive 7+1 parity"
	switch {
	case req.Baseline:
		mode = "baseline (no recovery)"
	case req.Mirror:
		mode = "ReVive mirroring"
	}
	type cell struct {
		st        *revive.Stats
		runErr    error
		parityErr error
	}
	var observer *sweep.Observer
	if sink != nil && sink.Cell != nil {
		observer = &sweep.Observer{
			Start:  func(i int) { sink.Cell(req.Apps[i], i, len(req.Apps), "start") },
			Finish: func(i int) { sink.Cell(req.Apps[i], i, len(req.Apps), "finish") },
		}
	}
	cells, err := sweep.RunCtxObs(ctx, parallelism, len(req.Apps), func(i int) cell {
		app, _ := revive.AppByName(req.Apps[i], o)
		c := cfg
		if sink != nil && sink.Sample != nil {
			label := req.Apps[i]
			c.OnSample = func(smp trace.Sample) { sink.Sample(label, smp) }
		}
		m := revive.New(c)
		m.Load(app)
		st, runErr := m.RunBudget(maxEvents)
		out := cell{st: st, runErr: runErr}
		if runErr == nil && !req.Baseline {
			out.parityErr = m.VerifyParity()
		}
		return out
	}, nil, observer)
	if err != nil {
		return nil, err
	}
	rows := make([]sweepRow, len(cells))
	for i, c := range cells {
		if c.runErr != nil {
			return nil, fmt.Errorf("app %s: %w", req.Apps[i], c.runErr)
		}
		if c.parityErr != nil {
			return nil, fmt.Errorf("app %s: parity violation: %v", req.Apps[i], c.parityErr)
		}
		rows[i] = sweepRow{App: req.Apps[i], Nodes: req.Nodes, Mode: mode, Stats: c.st}
		if !req.Baseline {
			ok := true
			rows[i].ParityVerified = &ok
		}
	}
	return rows, nil
}

// buildConfig assembles the machine configuration a request selects
// (mirror of revive-sim's flag handling).
func buildConfig(req Request, o revive.Options) revive.Config {
	if req.Baseline {
		return revive.BaselineConfig(o)
	}
	cfg := revive.EvalConfig(o)
	if req.NoCkpt {
		cfg.Checkpoint.Interval = 0
	}
	return cfg
}

// backoff returns the capped-exponential retry delay for an attempt
// (1-based): base, 2*base, 4*base ... never above cap.
func backoff(attempt int, base, cap time.Duration) time.Duration {
	d := base
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= cap {
			return cap
		}
	}
	if d > cap {
		return cap
	}
	return d
}
