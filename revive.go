// Package revive is a simulation-based reproduction of "ReVive:
// Cost-Effective Architectural Support for Rollback Recovery in
// Shared-Memory Multiprocessors" (Prvulovic, Zhang, Torrellas, ISCA 2002).
//
// The package is the public facade over the simulator: it builds machines
// (a 16-node CC-NUMA multiprocessor with directory coherence, per Table 3
// of the paper), attaches the ReVive directory-controller extensions
// (hardware logging, distributed N+1 parity, global checkpointing,
// rollback recovery), runs workloads — including synthetic profiles of the
// 12 SPLASH-2 applications — and regenerates every table and figure of the
// paper's evaluation (see experiments.go and EXPERIMENTS.md).
//
// A quick start:
//
//	m := revive.New(revive.EvalConfig(revive.Options{}))
//	app, _ := revive.AppByName("FFT", revive.Options{})
//	m.Load(app)
//	st := m.Run()
//	fmt.Println(st.ExecTime, st.Checkpoints)
//
// Fault injection and recovery:
//
//	m.InjectNodeLoss(5)
//	report, err := m.Recover(5, targetEpoch)
//	if err != nil {
//		// errors.Is(err, revive.ErrUnrecoverable): damage beyond the
//		// fault model; *revive.RetentionError: target aged out.
//	}
//	fmt.Println(report.Unavailable())
package revive

import (
	"io"

	"revive/internal/arch"
	"revive/internal/core"
	"revive/internal/iodev"
	"revive/internal/machine"
	"revive/internal/sim"
	"revive/internal/stats"
	"revive/internal/workload"
)

// Re-exported types: the simulator's public surface.
type (
	// Machine is one assembled system (processors, caches, directories,
	// memories, network, and optionally the ReVive controllers).
	Machine = machine.Machine
	// Config selects the machine's size, timing and recovery support.
	Config = machine.Config
	// Stats carries every counter the experiments report.
	Stats = stats.Stats
	// Report summarizes one recovery (Figure 7's phases).
	Report = core.Report
	// Snapshot is a committed checkpoint's functional image.
	Snapshot = machine.Snapshot
	// DetectionReport describes one automatic error-handling cycle
	// (error -> detection -> rollback -> resume).
	DetectionReport = machine.DetectionReport
	// Device is an external I/O connection under output commit.
	Device = iodev.Device
	// App is one SPLASH-2 application profile with its Table 4
	// reference values.
	App = workload.App
	// Profile is a synthetic workload parameterization.
	Profile = workload.Profile
	// Workload builds per-processor instruction streams.
	Workload = workload.Workload
	// NodeID identifies one node.
	NodeID = arch.NodeID
	// Addr is a byte address in the global address space.
	Addr = arch.Addr
	// Time is simulated time in nanoseconds (1 GHz: 1 cycle = 1 ns).
	Time = sim.Time
	// UnrecoverableError reports damage beyond the fault model: which
	// parity group lost more than one node. It wraps ErrUnrecoverable.
	UnrecoverableError = core.UnrecoverableError
	// RetentionError reports a rollback target that aged out of the
	// checkpoint retention window before recovery was requested.
	RetentionError = machine.RetentionError
)

// ErrUnrecoverable is the sentinel wrapped by every refusal to recover
// damage beyond ReVive's fault model (more than one lost node in a parity
// group, section 3.1.2). Match with errors.Is.
var ErrUnrecoverable = core.ErrUnrecoverable

// Watchdog sentinels returned (wrapped) by Machine.RunBudget when a run
// cannot finish: ErrStalled for a drained event queue with processors
// unfinished, ErrLivelock for an exhausted event budget. Match with
// errors.Is. revive-sim -max-events and every revive-serve job use the
// budgeted run so a pathological configuration reports instead of hanging.
var (
	ErrStalled  = sim.ErrStalled
	ErrLivelock = sim.ErrLivelock
)

// Convenient duration units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// New assembles a machine from a configuration.
func New(cfg Config) *Machine { return machine.New(cfg) }

// StrategyInfo describes one registered recovery-strategy backend.
type StrategyInfo = core.StrategyInfo

// DefaultStrategy is the paper's own design point ("revive").
const DefaultStrategy = core.DefaultStrategy

// Strategies lists the registered recovery-strategy backends in their
// canonical (sorted) order.
func Strategies() []StrategyInfo { return core.Strategies() }

// StrategyNames returns the registered backend names in canonical order.
func StrategyNames() []string { return core.StrategyNames() }

// ValidateStrategy checks a strategy name (e.g. a -strategy flag value);
// the empty name selects DefaultStrategy and is valid.
func ValidateStrategy(name string) error {
	_, err := core.NewStrategy(name)
	return err
}

// Options selects the experiment regime. The zero value is the default
// evaluation regime discussed in DESIGN.md section 6: paper instruction
// counts divided by 100, quarter-scale caches, and the checkpoint interval
// scaled so that the flush-cost-to-interval ratio matches the paper's
// Cp10ms regime.
type Options struct {
	// Nodes is the machine size (default 16, the paper's).
	Nodes int
	// Scale divides the paper's per-application instruction counts
	// (default 100).
	Scale int
	// Quick further shrinks instruction budgets (for smoke tests and
	// testing.B benchmarks); experiment shapes survive, absolute
	// numbers get noisier.
	Quick bool
	// GroupSize overrides the parity organization (default 8 = 7+1;
	// 2 = mirroring).
	GroupSize int
	// MirrorFrames enables the hybrid organization of sections 6.1/8:
	// frames below it are mirrored, the rest use GroupSize parity.
	MirrorFrames int
	// DedicatedParity concentrates parity on one node per group (the
	// Plank-style organization the paper argues against).
	DedicatedParity bool
	// Strategy selects the recovery-strategy backend ("revive",
	// "inline-log", "conelog"; empty = the default "revive"). See
	// core.Strategies for the registry and README "Recovery strategies".
	Strategy string
	// Verify retains per-checkpoint snapshots (recovery experiments).
	Verify bool
	// Parallelism is the worker count for the experiment sweeps
	// (RunErrorFree, RunRecoveryStudy, RunMissRates, RunTable2,
	// RunFigure6): how many independent simulations run at once. 0 uses
	// one worker per CPU (runtime.GOMAXPROCS); 1 forces the serial loop.
	// Results, reports and progress-callback order are byte-identical at
	// every setting — see internal/sweep.
	Parallelism int
	// Shards is ignored: every simulation runs on one serial engine.
	//
	// Deprecated: the field remains only for callers that still set it.
	Shards int
}

func (o Options) withDefaults() Options {
	if o.Nodes == 0 {
		o.Nodes = 16
	}
	if o.Scale == 0 {
		o.Scale = 100
	}
	if o.GroupSize == 0 {
		o.GroupSize = 8
	}
	return o
}

// CheckpointInterval is the evaluation regime's interval: the paper's
// simulated 10 ms scaled by 12.5, keeping the checkpoint-cost-to-interval
// ratio in the paper's regime for the quarter-scale caches (EXPERIMENTS.md
// records the calibration).
const CheckpointInterval = 800 * sim.Microsecond

// EvalConfig returns the evaluation-regime machine: the Table 3 system
// with quarter-scale caches (4 KB L1, 32 KB L2 — the paper itself scales
// caches to its scaled inputs; section 5) and the scaled Cp10ms checkpoint
// regime. ReVive is attached with 7+1 parity unless overridden.
func EvalConfig(o Options) Config {
	o = o.withDefaults()
	cfg := machine.Default(1)
	cfg.Nodes = o.Nodes
	cfg.GroupSize = o.GroupSize
	cfg.MirrorFrames = arch.Frame(o.MirrorFrames)
	cfg.DedicatedParity = o.DedicatedParity
	cfg.Strategy = o.Strategy
	cfg.Verify = o.Verify
	cfg.L1.SizeBytes = 4 * 1024
	cfg.L2.SizeBytes = 32 * 1024
	cfg.Checkpoint = core.CheckpointConfig{
		Interval:      CheckpointInterval,
		InterruptCost: 200 * sim.Nanosecond,
		BarrierCost:   400 * sim.Nanosecond,
		CtxSaveCost:   200 * sim.Nanosecond,
	}
	if o.Quick {
		// Quick runs are ~8x shorter; keep several intervals per run.
		cfg.Checkpoint.Interval = 150 * sim.Microsecond
	}
	return cfg
}

// BaselineConfig is EvalConfig without any recovery support (the
// comparison system of section 6.1).
func BaselineConfig(o Options) Config {
	cfg := EvalConfig(o)
	cfg.Revive = false
	cfg.Checkpoint.Interval = 0
	return cfg
}

// Apps returns the 12 SPLASH-2 application profiles at the options' scale.
func Apps(o Options) []App {
	o = o.withDefaults()
	apps := workload.Splash2(o.Scale, o.Nodes)
	if o.Quick {
		for i := range apps {
			apps[i].InstrPerProc /= 8
		}
	}
	return apps
}

// RecordTrace serializes a workload's per-processor op streams to w in the
// line-oriented trace format of internal/workload (diffable, hand-editable,
// replayable with ReplayTrace).
func RecordTrace(w io.Writer, wl Workload, procs int) error {
	return workload.WriteTrace(w, wl.Streams(procs))
}

// ReplayTrace parses a recorded trace into a Workload.
func ReplayTrace(r io.Reader) (Workload, error) {
	return workload.ReadTrace(r)
}

// AppByName returns one application by its Table 4 name.
func AppByName(name string, o Options) (App, bool) {
	for _, a := range Apps(o) {
		if a.Label == name {
			return a, true
		}
	}
	return App{}, false
}
