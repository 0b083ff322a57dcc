package core

import (
	"errors"
	"fmt"

	"revive/internal/arch"
	"revive/internal/mem"
	"revive/internal/sim"
)

// ErrUnrecoverable is the sentinel wrapped by every error that means the
// damage exceeds ReVive's fault model (section 3.1.2). Callers match it
// with errors.Is to distinguish "the machine is genuinely beyond repair"
// from incidental recovery failures.
var ErrUnrecoverable = errors.New("damage exceeds ReVive's fault model")

// UnrecoverableError reports which parity group is damaged beyond repair
// and by which lost nodes. It wraps ErrUnrecoverable.
type UnrecoverableError struct {
	Group int
	Lost  []arch.NodeID
}

func (e *UnrecoverableError) Error() string {
	return fmt.Sprintf("core: nodes %v are all lost in parity group %d; "+
		"the group is damaged beyond ReVive's ability to repair (section 3.1.2)",
		e.Lost, e.Group)
}

func (e *UnrecoverableError) Unwrap() error { return ErrUnrecoverable }

// InterruptedError reports that additional memory modules were lost while
// recovery was running. The machine layer reacts by re-validating the
// enlarged lost set and restarting recovery from Phase 1 (the restoration
// writes are idempotent and the logs are untouched until recovery
// finishes, so a restart is safe).
type InterruptedError struct {
	Phase int           // last completed phase when the loss was noticed
	New   []arch.NodeID // the newly lost nodes
}

func (e *InterruptedError) Error() string {
	return fmt.Sprintf("core: nodes %v lost while recovery phase %d was running",
		e.New, e.Phase)
}

// RecoveryConfig carries the recovery timing model (section 3.3.2). The
// per-operation costs derive from Table 3; phase durations scale with the
// amount of state to restore, which is what gives Figure 12 its shape
// (Radix's large log makes it the slowest to recover).
//
// Phase timing is computed from these constants rather than event-driven:
// after a fail-stop error the machine's normal timing state is undefined
// (that is the point of fail-stop), and the paper's own recovery-time
// discussion is a throughput model — time proportional to log and page
// counts over the effective rebuild bandwidth.
type RecoveryConfig struct {
	// HWRecovery is Phase 1: diagnosis, reconfiguration, protocol reset.
	// The paper adopts 50 ms from Hive/FLASH; scaled runs scale it.
	HWRecovery sim.Time
	// RemoteLineRead is the effective per-line cost of streaming a
	// remote line during reconstruction (no-contention latency ~191 ns,
	// partially pipelined).
	RemoteLineRead sim.Time
	// LocalLineOp is a local memory line read or write (port-bound).
	LocalLineOp sim.Time
	// RebuildStreams is how many peer streams a rebuilding processor
	// overlaps (limited by its directory controller and NI).
	RebuildStreams int
	// BackgroundShare is the fraction of compute devoted to Phase 4
	// background rebuilding (the paper evaluates one half).
	BackgroundShare float64
	// RemoteLineReadSaturated is the effective per-line cost when the
	// whole machine rebuilds at once (Phase 4 over a full node's
	// memory): every survivor streams from every source memory, so the
	// ports and links saturate far above the lightly-loaded Phase 2/3
	// figure.
	RemoteLineReadSaturated sim.Time
}

// DefaultRecoveryConfig returns the paper's constants scaled by the given
// factor (50 ms hardware recovery at scale 1).
func DefaultRecoveryConfig(scale int) RecoveryConfig {
	if scale < 1 {
		scale = 1
	}
	return RecoveryConfig{
		HWRecovery:              50 * sim.Millisecond / sim.Time(scale),
		RemoteLineRead:          200,
		LocalLineOp:             20,
		RebuildStreams:          2,
		BackgroundShare:         0.5,
		RemoteLineReadSaturated: 1200,
	}
}

// Report summarizes one recovery: the phase durations of Figure 7 and the
// work done. Phase4 overlaps normal execution (the machine is available);
// Phases 1-3 are the unavailable time that Figure 12 reports.
type Report struct {
	LostNode    arch.NodeID // -1 for errors without memory loss
	TargetEpoch uint64

	Phase1 sim.Time // hardware recovery
	Phase2 sim.Time // rebuild lost node's log pages from parity
	Phase3 sim.Time // rollback: restore memory from logs
	Phase4 sim.Time // background rebuild of remaining parity groups

	LogPagesRebuilt  int // phase 2
	EntriesRestored  int // phase 3
	EntriesSkipped   int // invalid markers / stale rebuilt slots
	DataPagesRebuilt int // phase 3, on demand (timing attribution)
	BackgroundPages  int // phase 4

	// Cone accounting (conelog strategy; zero elsewhere). ConeNodes is
	// the size of the dependence cone the rollback was limited to;
	// ConeGlobal marks a cone that escaped, forcing a global rollback.
	// EntriesOutsideCone counts validated entries the scope let stand.
	ConeNodes          int
	ConeGlobal         bool
	EntriesOutsideCone int

	// Per-phase reconstruction scope under split fault domains.
	// FramesReconstructed counts frames actually rebuilt from parity
	// across all damaged nodes; FramesSkipped counts frames a full
	// node-loss would have rebuilt but which survived the fault (the
	// whole high-water set for a cpu-loss, everything outside the damaged
	// range for a partial loss). A classic node loss rebuilds every used
	// frame and skips none.
	FramesReconstructed int
	FramesSkipped       int
}

// Unavailable is the machine-down time (Phases 1-3).
func (r Report) Unavailable() sim.Time { return r.Phase1 + r.Phase2 + r.Phase3 }

// ByteExact reports whether the rollback restored the whole machine, so
// memory must now equal the target checkpoint's snapshot byte for byte.
// Only a conelog rollback scoped to a dependence cone is exempt: it
// legitimately leaves non-cone frames at their latest (post-checkpoint)
// content, and comparing the whole machine against the snapshot would
// flag correct behavior (DESIGN.md section 4f).
func (r Report) ByteExact() bool { return r.ConeGlobal || r.ConeNodes == 0 }

func (r Report) String() string {
	s := fmt.Sprintf("recovery(lost=%d epoch=%d p1=%dns p2=%dns p3=%dns p4=%dns entries=%d pages=%d+%d",
		r.LostNode, r.TargetEpoch, r.Phase1, r.Phase2, r.Phase3, r.Phase4,
		r.EntriesRestored, r.DataPagesRebuilt, r.BackgroundPages)
	if r.FramesSkipped > 0 {
		s += fmt.Sprintf(" rebuilt=%d skipped=%d", r.FramesReconstructed, r.FramesSkipped)
	}
	return s + ")"
}

// Recovery performs rollback recovery over the machine's functional state.
// It is constructed by the machine layer after an error is detected.
//
// Ordering discipline. Before Recovery runs, the machine reconciles every
// surviving controller's in-flight parity updates (Controller.
// ReconcileParity — recovery Phase 1), so parity is consistent for all
// surviving data. Only updates that originated at, or targeted, the lost
// node are gone — and for those the section 4.2 arguments apply: the
// affected data lines either died with the node (their content is
// reconstructed from parity and, if written since the checkpoint,
// restored from the rebuilt log) or have their parity rebuilt from data.
// Given that, the algorithm (1) reconstructs every frame of the lost node
// — data frames from peers+parity, parity frames from the group's data —
// *before* any restoration mutates survivor data, then (2) rolls the logs
// back newest-first with parity-maintaining writes.
type Recovery struct {
	Topo  arch.Topology
	AMap  *arch.AddressMap
	Mems  []*mem.Memory
	Ctrls []*Controller
	Cfg   RecoveryConfig

	// PhaseHook, if set, runs after each completed recovery phase (1-4
	// for node loss; 1 and 3 for a pure rollback). Fault campaigns use it
	// to inject losses *during* recovery; after every hook the algorithm
	// checks for newly lost modules and returns an InterruptedError so
	// the caller can re-validate and restart.
	PhaseHook func(phase int)

	// Scope, if set, restricts Phase 3 to a dependence cone (conelog
	// strategy). nil — or a Scope with Global set — is the classic
	// global rollback.
	Scope *RecoveryScope
}

// RecoveryScope limits a rollback to the write-dependence cone of the
// fault (conelog strategy, after Dichev et al., arXiv:1806.01611): only
// log entries for lines whose post-checkpoint writers intersect the cone
// are restored; everything else keeps its latest (provably unaffected)
// content.
type RecoveryScope struct {
	// Cone lists the nodes inside the rollback cone, sorted by ID.
	Cone []arch.NodeID
	// Global marks a cone that escaped (grew past the pay-off bound) or
	// a fault whose origin is unknown: roll back everything, exactly
	// like the revive backend.
	Global bool
	// Restore reports whether a validated log entry for line must be
	// restored. nil restores everything (ignored when Global is set).
	Restore func(line arch.LineAddr) bool
}

// RecoveryPlanner is implemented by strategies that can scope a recovery
// (conelog). The machine layer consults it after damage validation and
// installs the resulting scope on the Recovery.
type RecoveryPlanner interface {
	// PlanRecovery derives the rollback scope for a fault at the given
	// victim nodes (empty for a transient fault of unknown origin),
	// rolling back to targetEpoch on a nodes-node machine.
	PlanRecovery(victims []arch.NodeID, targetEpoch uint64, nodes int) *RecoveryScope
}

// checkPhase fires the phase hook and scans for damaged memory modules.
// At the Phase 1 boundary the attempt's own damage is still marked (nothing
// has been restored yet — restoring before this boundary would let a
// phase-1 interrupt silently forget unreconstructed damage), so marks that
// do not escalate beyond the attempt set are expected and ignored. From
// Phase 2 on, every damaged frame of the attempt has been reconstructed and
// the marks cleared, so any mark is new damage — including a re-loss of a
// module this attempt just rebuilt — and must interrupt and restart.
func (r *Recovery) checkPhase(phase int, attempt map[arch.NodeID]Damage) error {
	if r.PhaseHook != nil {
		r.PhaseHook(phase)
	}
	var fresh []arch.NodeID
	for n, m := range r.Mems {
		node := arch.NodeID(n)
		var cur Damage
		switch {
		case m.Lost():
			cur = Damage{Node: node, Kind: FullLoss}
		case m.PartialLost():
			lo, hi := m.LostRange()
			frameLo := arch.Frame(lo >> arch.PageShift)
			cur = Damage{Node: node, Kind: PartialLoss, FrameLo: frameLo,
				Frames: arch.Frame((hi+arch.PageBytes-1)>>arch.PageShift) - frameLo}
		default:
			continue
		}
		if a, ok := attempt[node]; ok && !escalates(cur, a) {
			continue
		}
		fresh = append(fresh, node)
	}
	if len(fresh) > 0 {
		return &InterruptedError{Phase: phase, New: fresh}
	}
	return nil
}

// kindRank orders damage kinds by severity (the escalation ladder).
func kindRank(k DamageKind) int {
	switch k {
	case FullLoss:
		return 2
	case PartialLoss:
		return 1
	default:
		return 0
	}
}

// escalates reports whether cur damages strictly more than a already
// covers: a severer kind, or a partial range reaching outside a's.
func escalates(cur, a Damage) bool {
	if kindRank(cur.Kind) != kindRank(a.Kind) {
		return kindRank(cur.Kind) > kindRank(a.Kind)
	}
	if cur.Kind == PartialLoss {
		return cur.FrameLo < a.FrameLo || cur.FrameLo+cur.Frames > a.FrameLo+a.Frames
	}
	return false
}

// pageRebuildCost is the time for one processor to rebuild one page from
// its parity group: stream GroupSize-1 peer pages (64 lines each) and write
// the XOR locally.
func (r *Recovery) pageRebuildCost() sim.Time {
	peers := sim.Time(r.Topo.GroupSize - 1)
	lines := sim.Time(arch.LinesPerPage)
	streams := sim.Time(r.Cfg.RebuildStreams)
	return lines*peers*r.Cfg.RemoteLineRead/streams + lines*r.Cfg.LocalLineOp
}

// maxFrames is the allocation high-water across all nodes: the scrub and
// lost-node reconstruction must cover a node's parity frames even when the
// node's own allocator never reached them (another group member's did).
func (r *Recovery) maxFrames() arch.Frame {
	var max arch.Frame
	for n := 0; n < r.Topo.Nodes; n++ {
		if !r.Topo.HasDataFrames(arch.NodeID(n)) {
			continue
		}
		if f := r.AMap.FramesUsed(arch.NodeID(n)); f > max {
			max = f
		}
	}
	return max
}

// rebuildLine reconstructs one line of a lost node by XORing the rest of
// its parity stripe, writing the result into the replaced module. Parity
// lines are the XOR of the group's data lines; data lines are the XOR of
// peers plus parity.
func (r *Recovery) rebuildLine(p arch.PhysLine) {
	var acc arch.Data
	var stripe []arch.PhysLine
	if r.Topo.IsParityFrame(p.Node, p.Frame) {
		stripe = r.Topo.DataLinesOf(p)
	} else {
		stripe = append(r.Topo.StripePeers(p), r.Topo.ParityOf(p))
	}
	for _, q := range stripe {
		d := r.Mems[q.Node].Peek(q.MemAddr())
		acc.XOR(&d)
	}
	r.Mems[p.Node].Poke(p.MemAddr(), acc)
}

// rebuildPage reconstructs all 64 lines of one frame on a lost node.
func (r *Recovery) rebuildPage(node arch.NodeID, f arch.Frame) {
	for off := 0; off < arch.LinesPerPage; off++ {
		r.rebuildLine(arch.PhysLine{Node: node, Frame: f, Off: uint8(off)})
	}
}

// DamageKind classifies how much of one node a fault destroyed. The zero
// value is FullLoss, the paper's original node-loss model.
type DamageKind int

const (
	// FullLoss: processor, caches, directory and memory all died together
	// (section 3.1.2's fault model).
	FullLoss DamageKind = iota
	// CPUOnly: the processor and caches died but the node's memory
	// module, directory state and distributed log remain readable (the
	// CXL-era disaggregated failure mode). Dirty-in-cache state is gone,
	// which rollback discards anyway, so nothing needs reconstruction.
	CPUOnly
	// PartialLoss: a contiguous range of the node's memory frames died
	// while its processor survives (one device of a pooled module).
	PartialLoss
)

// String returns the chaos-schedule kind label for the damage.
func (k DamageKind) String() string {
	switch k {
	case FullLoss:
		return "node-loss"
	case CPUOnly:
		return "cpu-loss"
	case PartialLoss:
		return "mem-partial-loss"
	default:
		return fmt.Sprintf("DamageKind(%d)", int(k))
	}
}

// Damage describes one node's damage going into a recovery.
type Damage struct {
	Node arch.NodeID
	Kind DamageKind
	// FrameLo and Frames delimit the lost frame range
	// [FrameLo, FrameLo+Frames) for PartialLoss; ignored otherwise.
	FrameLo arch.Frame
	Frames  arch.Frame
}

// MemLost reports whether the damage destroyed any memory content.
func (d Damage) MemLost() bool { return d.Kind != CPUOnly }

// FullLossDamage wraps a lost-node set as full-loss damage descriptors
// (the classic fault model's shape).
func FullLossDamage(lost []arch.NodeID) []Damage {
	d := make([]Damage, len(lost))
	for i, n := range lost {
		d[i] = Damage{Node: n, Kind: FullLoss}
	}
	return d
}

// Recoverable reports whether the given set of lost nodes is within
// ReVive's fault model: at most one lost node per parity group
// (section 3.1.2 — "two malfunctioning memory modules on different nodes
// may damage a parity group beyond ReVive's ability to repair").
func (r *Recovery) Recoverable(lost []arch.NodeID) error {
	return r.RecoverableDamage(FullLossDamage(lost))
}

// RecoverableDamage generalizes Recoverable to split fault domains: at
// most one node with *memory* damage per parity group. A partial loss
// punches the same hole in its stripes as a full loss, so it counts; a
// CPU-only loss destroys no memory, so any number of them coexist with
// one memory loss per group.
func (r *Recovery) RecoverableDamage(damage []Damage) error {
	perGroup := map[int]arch.NodeID{}
	for _, d := range damage {
		if !d.MemLost() {
			continue
		}
		g := r.Topo.Group(d.Node)
		if prev, dup := perGroup[g]; dup {
			return &UnrecoverableError{Group: g, Lost: []arch.NodeID{prev, d.Node}}
		}
		perGroup[g] = d.Node
	}
	return nil
}

// NodeLoss recovers from the permanent loss of a node's memory content
// (section 3.2.4's worst case, Figure 7): Phase 1 hardware recovery,
// Phase 2 log reconstruction, Phase 3 rollback to targetEpoch with
// on-demand page rebuilds, Phase 4 background rebuild of the remaining
// pages. The lost module must already be marked lost.
func (r *Recovery) NodeLoss(lost arch.NodeID, targetEpoch uint64) (Report, error) {
	return r.MultiNodeLoss([]arch.NodeID{lost}, targetEpoch)
}

// MultiNodeLoss recovers from simultaneous loss of several nodes, provided
// no two share a parity group (each group tolerates one loss). The paper's
// multi-node discussion (section 3.1.2) draws exactly this boundary; damage
// beyond it returns an error wrapping ErrUnrecoverable. An InterruptedError
// means new modules were lost mid-recovery and the caller should restart.
func (r *Recovery) MultiNodeLoss(lost []arch.NodeID, targetEpoch uint64) (Report, error) {
	return r.Recover(FullLossDamage(lost), targetEpoch)
}

// Recover generalizes MultiNodeLoss across split fault domains: each
// damaged node contributes only the frames it actually lost. A full loss
// reconstructs every frame up to the allocation high-water; a partial loss
// only the damaged range; a CPU-only loss nothing at all — its memory and
// distributed log survived, so Phase 2 is skipped and Phase 3 rolls back
// from the surviving log directly. For an all-FullLoss damage set the
// timing and work accounting are identical to the classic algorithm.
func (r *Recovery) Recover(damage []Damage, targetEpoch uint64) (Report, error) {
	if err := r.RecoverableDamage(damage); err != nil {
		return Report{}, err
	}
	rep := Report{LostNode: -1, TargetEpoch: targetEpoch, Phase1: r.Cfg.HWRecovery}
	if len(damage) == 1 {
		rep.LostNode = damage[0].Node
	}
	if r.Scope != nil {
		rep.ConeNodes = len(r.Scope.Cone)
		rep.ConeGlobal = r.Scope.Global
	}
	for _, d := range damage {
		m := r.Mems[d.Node]
		switch d.Kind {
		case FullLoss:
			if !m.Lost() {
				return Report{}, fmt.Errorf("core: node-loss recovery for node %d whose memory is not marked lost", d.Node)
			}
		case PartialLoss:
			if !m.PartialLost() {
				return Report{}, fmt.Errorf("core: partial-loss recovery for node %d whose memory has no lost range", d.Node)
			}
		case CPUOnly:
			if m.Lost() || m.PartialLost() {
				return Report{}, fmt.Errorf("core: cpu-loss recovery for node %d whose memory is damaged (escalate to node loss)", d.Node)
			}
		}
	}
	// The phase-1 boundary runs with the damage still marked: an interrupt
	// here restarts with the marks intact, so the enlarged damage set still
	// names every unreconstructed frame.
	attempt := map[arch.NodeID]Damage{}
	for _, d := range damage {
		attempt[d.Node] = d
	}
	if err := r.checkPhase(1, attempt); err != nil {
		return rep, err
	}
	// Replaced hardware comes back zeroed; content is rebuilt below.
	for _, d := range damage {
		switch d.Kind {
		case FullLoss:
			r.Mems[d.Node].Restore()
		case PartialLoss:
			r.Mems[d.Node].RestoreRange()
		}
	}

	// Reconstruct the lost frames of each memory-damaged node from parity
	// before any restoration mutates survivor data (see the ordering
	// discipline in the type comment). Groups are disjoint, so each
	// stripe has at most one missing member and reconstructions are
	// independent. Timing is attributed per the paper's phases: rebuilt
	// log frames to Phase 2; frames the rollback touches to Phase 3
	// (on-demand); the rest to Phase 4 (background). A partial loss is
	// the exception: its damaged range is declared by the failing device,
	// so the survivors rebuild all of it eagerly during Phase 2 (striped
	// like the log pages) and the victim's live processor then walks its
	// log at full speed with nothing left to rebuild on demand.
	max := r.maxFrames()
	rebuilt := map[arch.NodeID][2]arch.Frame{} // per-node rebuild range [lo, hi)
	logFrames := map[arch.NodeID]map[arch.Frame]bool{}
	lostSet := map[arch.NodeID]bool{}
	partial := map[arch.NodeID]bool{}
	procDown := map[arch.NodeID]bool{}
	procsDown := 0
	phase2Pages := 0
	for _, d := range damage {
		if d.Kind == PartialLoss {
			partial[d.Node] = true
		} else {
			// Full and CPU-only losses take the processor down; a
			// partial loss leaves it running.
			procDown[d.Node] = true
			procsDown++
		}
		if !d.MemLost() {
			rep.FramesSkipped += int(max)
			continue
		}
		lo, hi := arch.Frame(0), max
		if d.Kind == PartialLoss {
			lo = d.FrameLo
			hi = min(d.FrameLo+d.Frames, max)
			lo = min(lo, hi)
		}
		lostSet[d.Node] = true
		rebuilt[d.Node] = [2]arch.Frame{lo, hi}
		lf := map[arch.Frame]bool{}
		for _, f := range r.Ctrls[d.Node].Log().Frames() {
			if f >= lo && f < hi {
				lf[f] = true
			}
		}
		logFrames[d.Node] = lf
		for f := lo; f < hi; f++ {
			r.rebuildPage(d.Node, f)
		}
		rep.LogPagesRebuilt += len(lf)
		rep.FramesReconstructed += int(hi - lo)
		rep.FramesSkipped += int(max - (hi - lo))
		if d.Kind == PartialLoss {
			phase2Pages += int(hi - lo) // whole declared range, eagerly
		} else {
			phase2Pages += len(lf)
		}
	}
	survivors := r.Topo.Nodes - procsDown
	rep.Phase2 = r.pageRebuildCost() * sim.Time(ceilDiv(phase2Pages, survivors))
	if err := r.checkPhase(2, nil); err != nil {
		return rep, err
	}

	// Phase 3: every node's log rolls back its own memory; the logs of
	// nodes whose processor died — rebuilt for full losses, surviving for
	// CPU-only ones — are processed by the survivors. A rebuilt page of a
	// full-loss node counts as an on-demand rebuild the first time the
	// rollback restores into it; frames outside a partial loss's damaged
	// range survived, and the range itself was rebuilt eagerly in Phase 2,
	// so a partial-loss node is pre-marked wholesale and never charges one.
	demand := map[arch.NodeID]map[arch.Frame]bool{}
	for n, rng := range rebuilt {
		dm := map[arch.Frame]bool{}
		for f := arch.Frame(0); f < max; f++ {
			if partial[n] || f < rng[0] || f >= rng[1] {
				dm[f] = true
			}
		}
		demand[n] = dm
	}
	perWalk := make([]sim.Time, r.Topo.Nodes)
	perRebuild := make([]sim.Time, r.Topo.Nodes)
	for n := 0; n < r.Topo.Nodes; n++ {
		node := arch.NodeID(n)
		if err := r.rollbackNode(node, targetEpoch, lostSet, demand, &rep,
			&perWalk[n], &perRebuild[n]); err != nil {
			return rep, err
		}
	}
	// Aggregate per-node times. Log walking and entry restoration are
	// port-bound work at the log's home: a live processor does its own
	// (full price), a dead node's log is split across the survivors —
	// on-demand rebuilds included, since the survivors walking that log
	// are the same pool that streams the parity groups. A live walker's
	// demand rebuilds (none today: partial losses rebuild eagerly in
	// Phase 2) would stream from the idle survivors in parallel, so they
	// divide rather than add. (Charging rebuilds to the walker at full
	// price was the E19 anomaly: a partial loss's Phase 3 exceeded the
	// full node-loss reference.)
	var maxT sim.Time
	for n := 0; n < r.Topo.Nodes; n++ {
		t := perWalk[n] + perRebuild[n]/sim.Time(survivors)
		if procDown[arch.NodeID(n)] {
			t = (perWalk[n] + perRebuild[n]) / sim.Time(survivors)
		}
		if t > maxT {
			maxT = t
		}
	}
	rep.Phase3 = maxT
	if err := r.checkPhase(3, nil); err != nil {
		return rep, err
	}

	// Phase 4: the remaining rebuilt frames (reconstructed above; timing
	// only). A partial loss contributes nothing here — its whole range
	// was already charged to Phase 2.
	for _, d := range damage {
		rng, ok := rebuilt[d.Node]
		if !ok {
			continue
		}
		for f := rng[0]; f < rng[1]; f++ {
			if !logFrames[d.Node][f] && !demand[d.Node][f] {
				rep.BackgroundPages++
			}
		}
	}
	rep.Phase4 = sim.Time(float64(r.pageRebuildCost()) *
		float64(ceilDiv(rep.BackgroundPages, survivors)) / r.Cfg.BackgroundShare)
	if err := r.checkPhase(4, nil); err != nil {
		return rep, err
	}
	return rep, nil
}

// Rollback recovers from errors that leave all memory intact (processor or
// cache errors, interconnect glitches): Phase 1 plus the Phase 3 rollback,
// then the parity scrub (in the background; the paper's Phases 2 and 4
// vanish in this case).
func (r *Recovery) Rollback(targetEpoch uint64) (Report, error) {
	rep := Report{LostNode: -1, TargetEpoch: targetEpoch, Phase1: r.Cfg.HWRecovery}
	if r.Scope != nil {
		rep.ConeNodes = len(r.Scope.Cone)
		rep.ConeGlobal = r.Scope.Global
	}
	if err := r.checkPhase(1, nil); err != nil {
		return rep, err
	}
	var maxT sim.Time
	for n := 0; n < r.Topo.Nodes; n++ {
		var t, rb sim.Time
		if err := r.rollbackNode(arch.NodeID(n), targetEpoch, nil, nil, &rep, &t, &rb); err != nil {
			return rep, err
		}
		if t += rb; t > maxT {
			maxT = t
		}
	}
	rep.Phase3 = maxT
	if err := r.checkPhase(3, nil); err != nil {
		return rep, err
	}
	return rep, nil
}

// rollbackNode undoes node's log entries newest-first down to the commit
// marker of targetEpoch, restoring old contents into memory. Entries
// without a valid marker are incomplete and skipped; entries carrying an
// *older* epoch under a valid marker are stale bytes of a reused slot whose
// in-flight parity update was lost (possible only in rebuilt logs) and are
// skipped too. t accumulates the node's log-walk and restoration time; rb
// accumulates the on-demand parity-group rebuild time separately — the
// caller attributes the two differently (rebuild streaming is farmed out
// to the survivors, the walk is the walker's own).
func (r *Recovery) rollbackNode(node arch.NodeID, targetEpoch uint64, lost map[arch.NodeID]bool,
	demand map[arch.NodeID]map[arch.Frame]bool, rep *Report, t, rb *sim.Time) error {
	log := r.Ctrls[node].Log()
	m := r.Mems[node]
	scoped := r.Scope != nil && !r.Scope.Global && r.Scope.Restore != nil
	var walkErr error
	log.walkNewest(func(s slotAddr) bool {
		hdr := decodeHeader(m.Peek(arch.PhysLine{Node: node, Frame: s.frame,
			Off: uint8(s.slot * entryLines)}.MemAddr()))
		*t += 2 * r.Cfg.LocalLineOp // read the entry
		switch {
		case hdr.marker == markerCkpt && hdr.epoch == targetEpoch:
			return false // reached the target checkpoint: done
		case hdr.marker == markerCkpt:
			return true // newer (or stale older) checkpoint marker
		case hdr.marker != markerValid || hdr.epoch < targetEpoch:
			rep.EntriesSkipped++
			return true
		}
		phys, ok := r.AMap.LookupLine(hdr.line)
		if !ok {
			walkErr = fmt.Errorf("core: node %d's log holds a validated entry for unmapped line %#x (log corrupt)",
				node, hdr.line)
			return false
		}
		if scoped && !r.Scope.Restore(hdr.line) {
			// Every post-checkpoint writer of the line is outside the
			// cone: its latest content is provably unaffected by the
			// fault and stands as-is (no restore, no demand rebuild).
			rep.EntriesOutsideCone++
			return true
		}
		if lost[phys.Node] && demand[phys.Node] != nil && !demand[phys.Node][phys.Frame] {
			// First restore into this lost page: the paper rebuilds
			// the parity group on demand here (Phase 3 timing).
			demand[phys.Node][phys.Frame] = true
			rep.DataPagesRebuilt++
			*rb += r.pageRebuildCost()
		}
		old := m.Peek(arch.PhysLine{Node: node, Frame: s.frame,
			Off: uint8(s.slot*entryLines + 1)}.MemAddr())
		r.Ctrls[node].pokeWithParity(phys, old)
		rep.EntriesRestored++
		*t += r.Cfg.LocalLineOp * 4 // write + parity read-modify-write
		return true
	})
	return walkErr
}

// ProjectPhase4 estimates the section 3.3.2 full-memory background
// rebuild: reconstructing an entire lost node of nodeMemBytes while the
// survivors devote BackgroundShare of their compute to it. The paper's
// reference point: a 16-processor machine with 7+1 parity rebuilds a 2 GB
// node in about 20 seconds at half compute.
func (r *Recovery) ProjectPhase4(nodeMemBytes uint64) sim.Time {
	pages := int(nodeMemBytes / arch.PageBytes)
	survivors := r.Topo.Nodes - 1
	peers := sim.Time(r.Topo.GroupSize - 1)
	lines := sim.Time(arch.LinesPerPage)
	perPage := lines*peers*r.Cfg.RemoteLineReadSaturated/sim.Time(r.Cfg.RebuildStreams) +
		lines*r.Cfg.LocalLineOp
	return sim.Time(float64(perPage) * float64(ceilDiv(pages, survivors)) /
		r.Cfg.BackgroundShare)
}

func ceilDiv(a, b int) int {
	if a == 0 {
		return 0
	}
	return (a + b - 1) / b
}
