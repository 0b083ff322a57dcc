package chaos

import (
	"errors"
	"fmt"
	"sort"

	"revive/internal/arch"
	"revive/internal/core"
	"revive/internal/machine"
	"revive/internal/sim"
	"revive/internal/trace"
	"revive/internal/workload"
)

// BugDataBeforeLog names a deliberately broken build used to validate the
// campaign engine itself: controllers write data before logging it (see
// core.Controller.BugDataBeforeLog). A campaign whose fault forces a
// rollback of any line written under the bug must fail the byte-exact
// oracle.
const BugDataBeforeLog = "data-before-log"

// BugDropAck names the second deliberately broken build: the transport
// sends frames fire-and-forget (no acks, no retransmission) while still
// promising exactly-once delivery. Any campaign whose fabric drops or
// corrupts a frame must fail the transport audit — the exactly-once
// invariant is violated at the final quiescent point.
const BugDropAck = "drop-ack"

// interval is the campaign checkpoint interval: short, so every run crosses
// several two-phase commits.
const interval = 40 * sim.Microsecond

// armEpoch is the committed checkpoint at which fault triggers arm; by then
// the retention window is fully populated.
const armEpoch = 2

// Violation is one invariant failure, tagged with the campaign phase where
// it was observed.
type Violation struct {
	Phase     string `json:"phase"`     // e.g. "commit-3", "post-recovery", "final"
	Invariant string `json:"invariant"` // registry name, "byte-exact", "watchdog", ...
	Detail    string `json:"detail"`
}

func (v Violation) String() string {
	return fmt.Sprintf("[%s] %s: %s", v.Phase, v.Invariant, v.Detail)
}

// Outcome is the full result of running one schedule.
type Outcome struct {
	Schedule Schedule `json:"schedule"`

	Injected    bool   `json:"injected"`
	NoFault     bool   `json:"no_fault"` // trigger never fired before completion
	ArmedAt     int64  `json:"armed_at_ns,omitempty"`
	FiredAt     int64  `json:"fired_at_ns,omitempty"`
	FiredNode   int    `json:"fired_node"`       // node whose controller fired a step trigger; -1 otherwise
	Target      uint64 `json:"target,omitempty"` // rollback target epoch
	Lost        []int  `json:"lost,omitempty"`   // every node ever lost
	SecondFired bool   `json:"second_fired,omitempty"`

	Unrecoverable bool `json:"unrecoverable,omitempty"` // typed refusal (expected for beyond-model damage)
	Recovered     bool `json:"recovered,omitempty"`
	Completed     bool `json:"completed,omitempty"`

	// Fabric-fault bookkeeping (unreliable-interconnect campaigns).
	NetFaulted  bool   `json:"net_faulted,omitempty"` // a fault plan was attached
	Escalations int    `json:"escalations,omitempty"` // unreachability reports escalated to node-loss recovery
	Retransmits uint64 `json:"retransmits,omitempty"` // transport retransmissions
	Drops       uint64 `json:"drops,omitempty"`       // fabric-injected drops
	Corruptions uint64 `json:"corruptions,omitempty"` // fabric-injected corruptions
	Failovers   uint64 `json:"failovers,omitempty"`   // routes steered around dead links
	Dedups      uint64 `json:"dedups,omitempty"`      // duplicate frames suppressed

	Checks     int         `json:"checks"`
	Violations []Violation `json:"violations,omitempty"`

	// EndAt is the simulated clock when the run ended. Fabric-only
	// schedules with identical seeds differ only in their fault plan, so
	// comparing EndAt across drop probabilities measures the execution-time
	// cost of retransmission (EXPERIMENTS.md E17).
	EndAt int64 `json:"end_ns,omitempty"`
}

// Failed reports whether the run violated any invariant.
func (o *Outcome) Failed() bool { return len(o.Violations) > 0 }

func (o *Outcome) violate(phase, invariant, detail string) {
	o.Violations = append(o.Violations, Violation{Phase: phase, Invariant: invariant, Detail: detail})
}

// collectNet copies the machine's fabric and transport counters into the
// outcome (called once, when the run ends).
func (o *Outcome) collectNet(m *machine.Machine) {
	st := m.Stats
	o.Retransmits = st.XportRetransmits
	o.Drops = st.NetFaultDrops
	o.Corruptions = st.NetFaultCorrupts
	o.Failovers = st.NetRouteFailovers
	o.Dedups = st.XportDupsDropped
}

// Invariant is one named machine-wide consistency check.
type Invariant struct {
	Name  string
	Check func(*machine.Machine) error
}

// Registry returns the standing invariant set evaluated at every quiescent
// point of a campaign: after each checkpoint commit, after recovery, and
// after the resumed workload completes.
func Registry() []Invariant {
	return []Invariant{
		{"parity", (*machine.Machine).VerifyParity},
		{"log-markers", (*machine.Machine).VerifyLog},
		{"lbits", (*machine.Machine).VerifyLBits},
		{"coherence", (*machine.Machine).VerifyCoherence},
		{"transport", (*machine.Machine).VerifyTransport},
	}
}

// checkQuiescent evaluates the registry at a quiescent point.
func (o *Outcome) checkQuiescent(m *machine.Machine, phase string) {
	for _, inv := range Registry() {
		o.Checks++
		if err := inv.Check(m); err != nil {
			o.violate(phase, inv.Name, err.Error())
		}
	}
}

// buildMachine assembles the campaign machine: the paper's per-node timing
// with the schedule's size, fast checkpoints and Verify snapshots (the
// byte-exact oracle needs them).
func buildMachine(s Schedule, tr *trace.Tracer) *machine.Machine {
	cfg := machine.Default(100)
	cfg.Nodes = s.Nodes
	cfg.GroupSize = s.GroupSize
	cfg.Checkpoint.Interval = interval
	cfg.Checkpoint.InterruptCost = 500
	cfg.Checkpoint.BarrierCost = 1000
	cfg.Checkpoint.Retain = s.Retain
	cfg.Strategy = s.Strategy // Validate rejected unknown names already
	cfg.Verify = true
	cfg.Trace = tr
	m := machine.New(cfg)
	if s.Bug == BugDataBeforeLog {
		for _, ctrl := range m.Ctrls {
			ctrl.BugDataBeforeLog = true
		}
	}
	if s.Bug == BugDropAck {
		m.Xport.DisableAcks = true
	}
	return m
}

// profile derives the workload from the schedule seed: miss rate, dirtiness
// and sharing vary per campaign so the fault space is explored over many
// in-flight configurations.
func profile(s Schedule) workload.Profile {
	rng := sim.NewRand(s.Seed ^ 0xC0FFEE)
	return workload.Profile{
		Label:           "chaos",
		InstrPerProc:    s.Instr,
		MemOpsPer1000:   250 + rng.Intn(101),
		HotLines:        200 + rng.Intn(201),
		HotWriteFrac:    0.3 + 0.2*rng.Float64(),
		ColdFrac:        0.005 + 0.01*rng.Float64(),
		ColdLines:       4096 + rng.Intn(3)*2048,
		ColdWriteFrac:   0.4 + 0.2*rng.Float64(),
		ColdSeq:         rng.Bool(0.3),
		SharedFrac:      0.01 + 0.02*rng.Float64(),
		SharedLines:     1024,
		SharedWriteFrac: 0.1 + 0.2*rng.Float64(),
	}
}

// eventBudget bounds each guarded run segment; healthy runs finish far
// below it, so exhausting it means livelock.
func eventBudget(s Schedule) uint64 {
	return s.Instr*uint64(s.Nodes)*500 + 10_000_000
}

// beyondModel reports whether the cumulative lost set exceeds ReVive's
// fault model: more than one loss in any parity group (section 3.1.2).
func beyondModel(s Schedule, lost []int) bool {
	perGroup := map[int]int{}
	for _, n := range lost {
		perGroup[n/s.GroupSize]++
		if perGroup[n/s.GroupSize] > 1 {
			return true
		}
	}
	return false
}

// errAbort is the internal signal that a run segment already recorded its
// terminal outcome (violations or a typed refusal) and the run must stop.
var errAbort = errors.New("chaos: run aborted")

// runner carries the mutable state of one schedule execution.
type runner struct {
	o      *Outcome
	m      *machine.Machine
	s      Schedule
	budget uint64

	escVictim arch.NodeID // node blamed by the unreachability detector; -1 when none
	everLost  map[int]bool

	// episode is the set of nodes lost since the last fully verified
	// recovery. The fault-model meta-check must use it, not everLost:
	// ReVive tolerates one loss per parity group *at a time* — a node that
	// was lost, recovered and parity-verified may legitimately be followed
	// by a loss of its group neighbor (sequential, not simultaneous).
	episode map[int]bool
}

// lostList returns the cumulative ever-lost set, sorted (reporting only).
func (r *runner) lostList() []int {
	return sortedKeys(r.everLost)
}

// episodeList returns the current damage episode's lost set, sorted.
func (r *runner) episodeList() []int {
	return sortedKeys(r.episode)
}

func sortedKeys(m map[int]bool) []int {
	var out []int
	for n := range m {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// markLost records a node as lost in both the cumulative and the
// episode-scoped sets.
func (r *runner) markLost(n int) {
	r.everLost[n] = true
	r.episode[n] = true
}

// seg runs the engine until done() holds, handling any transport
// escalations that interrupt the segment. Returns errAbort when an
// escalation ended the run (outcome already recorded), or the watchdog
// error.
func (r *runner) seg(done func() bool) error {
	for {
		err := r.m.Engine.RunGuarded(r.budget, func() bool { return done() || r.escVictim >= 0 })
		if r.escVictim >= 0 {
			if !r.escalate() {
				return errAbort
			}
			continue
		}
		return err
	}
}

// escalate services one unreachability report: the degradation ladder's
// last rung. The transport exhausted its retransmit budget, detection
// blamed a node, and the chaos hook froze the machine — from here the
// response is exactly the paper's node-loss recovery. The victim's module
// (memory *and* router: replacing the board replaces its fabric hardware)
// is marked lost and repaired, memory is rebuilt from parity, and the
// machine rolls back and resumes. Returns false when the run is over
// (refusal or violation recorded).
func (r *runner) escalate() bool {
	v := r.escVictim
	r.escVictim = -1
	o, m := r.o, r.m
	o.Escalations++
	if !m.Mems[v].Lost() {
		m.Mems[v].MarkLost()
	}
	// Module replacement: the repaired node comes back with working fabric
	// hardware, so the plan's kills on its links and router are lifted.
	m.Net.RepairNode(v)
	for _, n := range m.LostNodes() {
		r.markLost(int(n))
	}
	// Recovery drives controller steps; the primary fault's step trigger
	// must not fire off them.
	hooks := make([]func(core.Step, arch.LineAddr), len(m.Ctrls))
	for i, ctrl := range m.Ctrls {
		hooks[i] = ctrl.StepHook
		ctrl.StepHook = nil
	}
	target := m.Ckpt.Epoch()
	rep, err := m.Recover(-1, target)
	for i, ctrl := range m.Ctrls {
		ctrl.StepHook = hooks[i]
	}
	beyond := beyondModel(r.s, r.episodeList())
	switch {
	case err == nil:
		if beyond {
			o.violate("escalation", "fault-model",
				fmt.Sprintf("recovery accepted damage beyond the fault model (lost %v, group size %d)",
					r.episodeList(), r.s.GroupSize))
			return false
		}
		o.Recovered = true
		if rep.ByteExact() {
			o.Checks++
			if snap, ok := m.SnapshotAt(target); !ok {
				o.violate("escalation", "byte-exact",
					fmt.Sprintf("snapshot of target epoch %d missing after recovery", target))
			} else if err := m.VerifyAgainstSnapshot(snap); err != nil {
				o.violate("escalation", "byte-exact", err.Error())
			}
		}
		o.checkQuiescent(m, "escalation")
		if o.Failed() {
			return false
		}
		if err := m.Resume(rep); err != nil {
			o.violate("escalation", "resume", err.Error())
			return false
		}
		// Recovery verified end to end (parity included): the damage
		// episode is closed and the group can tolerate a fresh loss.
		r.episode = map[int]bool{}
		return true
	case isUnrecoverable(err):
		o.Unrecoverable = true
		if !beyond {
			o.violate("escalation", "fault-model",
				fmt.Sprintf("refused recoverable damage (lost %v, group size %d): %v",
					r.episodeList(), r.s.GroupSize, err))
		}
		return false
	default:
		o.violate("escalation", "recovery", err.Error())
		return false
	}
}

// finish drains the run to completion under the livelock watchdog and
// evaluates the registry one last time. Watchdog trips additionally run the
// transport audit: a drained-but-stalled engine is a final state for the
// exactly-once check, and a lost frame with no retransmission (the drop-ack
// bug) surfaces here.
func (r *runner) finish() {
	o, m := r.o, r.m
	for {
		if err := r.seg(m.Done); err != nil {
			if err != errAbort {
				o.violate("run", "watchdog", err.Error())
				if terr := m.VerifyTransport(); terr != nil {
					o.violate("run", "transport", terr.Error())
				}
			}
			return
		}
		m.Engine.Run() // drain post-completion events (acks, idle timers)
		if r.escVictim >= 0 {
			if !r.escalate() {
				return
			}
			continue
		}
		break
	}
	o.Completed = true
	o.checkQuiescent(m, "final")
}

// RunSchedule executes one schedule on a fresh machine and returns its
// outcome. The run is fully deterministic: the same schedule always yields
// the same outcome (shrinking and replay depend on this).
func RunSchedule(s Schedule) *Outcome { return runSchedule(s, nil) }

// RunScheduleTraced executes a schedule with a flight recorder holding the
// last capacity events and returns the recording alongside the outcome.
// Tracing never perturbs the simulated run — it observes the same
// deterministic event sequence RunSchedule executes.
func RunScheduleTraced(s Schedule, capacity int) (*Outcome, []trace.Event) {
	tr := trace.New(capacity)
	o := runSchedule(s, tr)
	return o, tr.Events()
}

func runSchedule(s Schedule, tr *trace.Tracer) *Outcome {
	o := &Outcome{Schedule: s, FiredNode: -1}
	if err := s.Validate(); err != nil {
		o.violate("schedule", "validate", err.Error())
		return o
	}
	m := buildMachine(s, tr)
	m.Load(profile(s))
	r := &runner{o: o, m: m, s: s, budget: eventBudget(s), escVictim: -1,
		everLost: map[int]bool{}, episode: map[int]bool{}}
	defer func() {
		o.Lost = r.lostList()
		o.collectNet(m)
		o.EndAt = int64(m.Engine.Now())
	}()

	var committed uint64
	m.OnCheckpoint = func(e uint64) {
		committed = e
		o.checkQuiescent(m, fmt.Sprintf("commit-%d", e))
	}
	// Transport escalation hook: record the blamed node and fail-stop. The
	// runner handles recovery outside the event loop.
	m.OnUnreachable = func(victim arch.NodeID) {
		if r.escVictim >= 0 {
			return // already handling one report
		}
		r.escVictim = victim
		m.Freeze()
	}
	m.Start()

	// Run to the arming point: checkpoint armEpoch committed. No fault plan
	// is attached yet, so no escalation can interrupt this segment.
	if err := m.Engine.RunGuarded(r.budget, func() bool { return committed >= armEpoch || m.Done() }); err != nil {
		o.violate("pre-arm", "watchdog", err.Error())
		return o
	}
	o.ArmedAt = int64(m.Engine.Now())
	if len(s.Faults) == 0 || (m.Done() && committed < armEpoch) {
		o.NoFault = true
		r.finish()
		return o
	}

	// Attach the fabric fault plan: its windows open relative to ArmedAt,
	// and the transport switches from passthrough to reliable delivery.
	if p := s.plan(sim.Time(o.ArmedAt)); p != nil {
		m.SetFaultPlan(p)
		o.NetFaulted = true
	}

	primary := primaryIndex(s)
	if primary < 0 {
		// Fabric-only schedule: no machine fault to arm; the lossy fabric
		// itself is the experiment.
		r.finish()
		return o
	}

	// Arm the primary machine fault's trigger.
	f := s.Faults[primary]
	fired := false
	firedNode := arch.NodeID(-1)
	fire := func(node arch.NodeID) {
		fired = true
		firedNode = node
		o.FiredNode = int(node)
		o.Injected = true
		o.FiredAt = int64(m.Engine.Now())
		o.Target = m.Ckpt.Epoch()
		m.Freeze()
	}
	switch f.Trigger {
	case AtTime:
		deadline := sim.Time(o.ArmedAt + f.DelayNS)
		for !fired {
			if m.Engine.Now() >= deadline {
				if !m.Done() {
					fire(-1)
				}
				break
			}
			// A marker event pins the exact fire instant; an escalation's
			// Freeze drops it (Engine.Reset), so the loop re-arms it.
			reached := false
			m.Engine.At(deadline, func() { reached = true })
			err := r.seg(func() bool { return reached || m.Done() })
			if err == errAbort {
				return o
			}
			if err != nil {
				o.violate("armed", "watchdog", err.Error())
				return o
			}
			if reached && !m.Done() {
				fire(-1)
			}
			if m.Done() {
				break
			}
		}
	case AtStep, AtCommit:
		want := core.StepLogMarkerParityApplied // AtCommit: a checkpoint marker's parity application
		if f.Trigger == AtStep {
			want, _ = core.ParseStep(f.Step)
		}
		skip := f.Skip
		for _, ctrl := range m.Ctrls {
			ctrl := ctrl
			ctrl.StepHook = func(st core.Step, line arch.LineAddr) {
				if fired || st != want {
					return
				}
				if f.Trigger == AtCommit && line != 0 {
					return // marker entries log with line 0
				}
				if skip > 0 {
					skip--
					return
				}
				fire(ctrl.Node())
			}
		}
		err := r.seg(func() bool { return fired || m.Done() })
		for _, ctrl := range m.Ctrls {
			ctrl.StepHook = nil
		}
		if err == errAbort {
			return o
		}
		if err != nil {
			o.violate("armed", "watchdog", err.Error())
			return o
		}
	}
	if !fired {
		o.NoFault = true
		r.finish()
		return o
	}

	// The machine is frozen; apply the fault's damage. Empty node lists
	// (step triggers) resolve to the node whose controller fired.
	victims := f.Nodes
	if len(victims) == 0 {
		victims = []int{int(firedNode)}
	}
	switch f.Kind {
	case NodeLoss:
		for _, n := range victims {
			m.Mems[n].MarkLost()
		}
	case CPULoss:
		for _, n := range victims {
			m.MarkCPULost(arch.NodeID(n))
		}
	case MemPartialLoss:
		m.MarkMemPartialLost(arch.NodeID(victims[0]), arch.Frame(f.FrameLo), arch.Frame(f.Frames))
	}
	for _, n := range m.LostNodes() {
		r.markLost(int(n))
	}
	// A partial memory loss consumes its parity group's one-loss budget
	// exactly like a full loss (the stripes crossing the damaged range have
	// lost a member); a cpu-loss does not — its memory and log survive, so
	// the group can still absorb a memory loss. The fault-model meta-check
	// must see partial damage in the episode set.
	for _, d := range m.DamageSet() {
		if d.Kind == core.PartialLoss {
			r.markLost(int(d.Node))
		}
	}

	// Arm any in-recovery second faults on the phase hook (one-shot each —
	// the hook fires again on every restart attempt).
	var rec []Fault
	for i, rf := range s.Faults {
		if i != primary && !rf.Kind.IsNet() {
			rec = append(rec, rf)
		}
	}
	recFired := make([]bool, len(rec))
	m.OnRecoveryPhase = func(p int) {
		for i, rf := range rec {
			if recFired[i] || rf.Phase != p {
				continue
			}
			recFired[i] = true
			for _, n := range rf.Nodes {
				if !m.Mems[n].Lost() {
					m.Mems[n].MarkLost()
				}
			}
		}
	}
	rep, err := m.Recover(-1, o.Target)
	m.OnRecoveryPhase = nil
	for i, rf := range rec {
		if recFired[i] {
			o.SecondFired = true
			for _, n := range rf.Nodes {
				r.markLost(n)
			}
		}
	}
	beyond := beyondModel(s, r.episodeList())

	switch {
	case err == nil:
		if beyond {
			o.violate("post-recovery", "fault-model",
				fmt.Sprintf("recovery accepted damage beyond the fault model (lost %v, group size %d)",
					r.episodeList(), s.GroupSize))
			return o
		}
		o.Recovered = true
		// A scoped cone rollback is exempt from the byte-exact oracle
		// (core.Report.ByteExact); the rest of the registry (parity, log
		// markers, L-bits, coherence, transport) runs unconditionally.
		if rep.ByteExact() {
			o.Checks++
			if snap, ok := m.SnapshotAt(o.Target); !ok {
				o.violate("post-recovery", "byte-exact",
					fmt.Sprintf("snapshot of target epoch %d missing after recovery", o.Target))
			} else if err := m.VerifyAgainstSnapshot(snap); err != nil {
				o.violate("post-recovery", "byte-exact", err.Error())
			}
		}
		// Split-domain reconstruction scope. A cpu-loss leaves every memory
		// module and log intact, so a clean (single-fault) recovery must skip
		// Phase 2 entirely; a partial loss must rebuild at most its damaged
		// range. A fired second fault widens the damage, so scope checks only
		// apply to single-fault runs.
		if !o.SecondFired {
			switch f.Kind {
			case CPULoss:
				o.Checks++
				if rep.Phase2 != 0 || rep.FramesReconstructed != 0 {
					o.violate("post-recovery", "reconstruction-skip",
						fmt.Sprintf("cpu-loss with intact log reconstructed %d frames (phase2=%dns)",
							rep.FramesReconstructed, rep.Phase2))
				}
			case MemPartialLoss:
				o.Checks++
				if rep.FramesReconstructed > f.Frames {
					o.violate("post-recovery", "reconstruction-scope",
						fmt.Sprintf("partial loss of %d frames reconstructed %d",
							f.Frames, rep.FramesReconstructed))
				}
			}
		}
		o.checkQuiescent(m, "post-recovery")
		if o.Failed() {
			return o // don't resume on a corrupt image
		}
		if err := m.Resume(rep); err != nil {
			o.violate("resume", "resume", err.Error())
			return o
		}
		r.episode = map[int]bool{} // verified recovery closes the episode
		r.finish()
	case isUnrecoverable(err):
		o.Unrecoverable = true
		if !beyond {
			o.violate("recovery", "fault-model",
				fmt.Sprintf("refused recoverable damage (lost %v, group size %d): %v", r.episodeList(), s.GroupSize, err))
		}
		// The machine is legitimately damaged; no further checks apply.
	default:
		o.violate("recovery", "recovery", err.Error())
	}
	return o
}

// isUnrecoverable matches the typed refusal for beyond-model damage.
func isUnrecoverable(err error) bool {
	return errors.Is(err, core.ErrUnrecoverable)
}
