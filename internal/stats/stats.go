// Package stats collects the counters from which every table and figure of
// the ReVive paper's evaluation is regenerated: execution time, network and
// memory traffic broken down by the classes of Figures 9 and 10, cache hit
// rates (Table 4), log occupancy high-water marks (Figure 11), checkpoint
// cost accounting (Figure 6) and recovery phase times (Figures 7 and 12).
package stats

import (
	"fmt"

	"revive/internal/sim"
	"revive/internal/trace"
)

// Class labels a network message or memory access with the traffic
// category used in the paper's Figure 9/10 breakdowns.
type Class int

const (
	// ClassRead is RD/RDX traffic: data supplied on cache misses, plus
	// the request/intervention/invalidation control messages of the
	// baseline coherence protocol.
	ClassRead Class = iota
	// ClassExeWB is write-back traffic during regular execution.
	ClassExeWB
	// ClassCkpWB is write-back traffic caused by checkpoint cache flushes.
	ClassCkpWB
	// ClassLog is traffic writing checkpoint data to the logs.
	ClassLog
	// ClassParity is distributed parity update traffic (data and log).
	ClassParity
	// ClassRecovery is traffic generated during rollback recovery.
	ClassRecovery
	// ClassXport is reliable-transport overhead traffic: positive
	// acknowledgments (retransmitted payloads stay in their original
	// class). Zero on a perfect fabric.
	ClassXport
	// NumClasses is the number of traffic classes.
	NumClasses
)

// ClassNames returns every traffic class label in Class order, the
// legend for Sample.NetBytes / Sample.MemAccesses indices.
func ClassNames() []string {
	names := make([]string, NumClasses)
	for c := Class(0); c < NumClasses; c++ {
		names[c] = c.String()
	}
	return names
}

// String returns the label used in the paper's figures.
func (c Class) String() string {
	switch c {
	case ClassRead:
		return "RD/RDX"
	case ClassExeWB:
		return "ExeWB"
	case ClassCkpWB:
		return "CkpWB"
	case ClassLog:
		return "LOG"
	case ClassParity:
		return "PAR"
	case ClassRecovery:
		return "RECOV"
	case ClassXport:
		return "XPORT"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Stats is the single sink for all machine counters. It is owned by the
// simulation's event loop, so plain (non-atomic) increments are safe.
type Stats struct {
	// Trace, when non-nil, receives flight-recorder events from every
	// instrumented component. It rides on Stats because every component
	// already holds the machine's Stats; a nil Trace costs one pointer
	// check per emit site and allocates nothing.
	Trace *trace.Tracer `json:"-"`

	// Schema is the version of this JSON envelope (SchemaVersion at
	// build time; New stamps it). Consumers that persist or cache stats
	// payloads — the revive-serve content-addressed result cache keys on
	// it — use the version to discriminate payloads produced by
	// different code versions. It appears exactly once per run result.
	Schema int `json:"schema_version"`

	// Strategy is the recovery-strategy backend the run used ("revive",
	// "inline-log", "conelog"; empty on baseline machines without
	// recovery support). machine.New stamps it.
	Strategy string `json:"strategy,omitempty"`

	// Per-processor progress.
	Instructions uint64
	MemRefs      uint64
	Loads        uint64
	Stores       uint64

	// Cache behaviour.
	L1Hits   uint64
	L1Misses uint64
	L2Hits   uint64
	L2Misses uint64

	// Traffic by class. NetBytes/NetMsgs count inter-node network
	// traffic; MemAccesses counts line-sized accesses to any node's DRAM.
	NetBytes    [NumClasses]uint64
	NetMsgs     [NumClasses]uint64
	MemAccesses [NumClasses]uint64

	// Checkpointing.
	Checkpoints        int
	CkpFlushTime       sim.Time // total time processors spent flushing
	CkpBarrierTime     sim.Time // total time spent in the two barriers
	CkpInterruptTime   sim.Time // total interrupt delivery time
	LogBytesPeak       uint64   // max retained log bytes on any node
	LogBytesPeakPerCkp uint64   // peak of a single checkpoint interval's log

	// Unreliable-interconnect accounting (all zero on a perfect fabric).
	// The fault plan injects drops/corruptions/duplicates/delays; the
	// reliable transport masks them with retransmission, dedup and CRC
	// checks; routing masks dead links with failover.
	NetFaultDrops       uint64 // messages discarded in the fabric by the fault plan
	NetFaultCorrupts    uint64 // messages bit-flipped in the fabric by the fault plan
	NetFaultDups        uint64 // extra copies injected by the fault plan
	NetFaultDelays      uint64 // messages given extra latency by the fault plan
	NetRouteFailovers   uint64 // messages routed around a dead link/router
	NetRouteDrops       uint64 // messages with no usable route at all
	XportRetransmits    uint64 // payload frames re-sent after an ack timeout
	XportDupsDropped    uint64 // duplicate frames suppressed by receiver dedup
	XportCorruptsCaught uint64 // frames rejected on a CRC mismatch
	XportAcks           uint64 // positive acknowledgments sent
	XportUnreachable    uint64 // destinations given up on (retransmit budget exhausted)

	// ParityDebtsDropped counts outstanding parity-ledger deltas that
	// recovery Phase 1 discarded because the target parity node itself
	// was lost; Phase 4 rebuilds those parity pages from the surviving
	// data, so the deltas are moot, but the rebuild accounting needs
	// them. Omitted from JSON when zero (every healthy run).
	ParityDebtsDropped uint64 `json:",omitempty"`

	// Split-fault-domain recovery scope, cumulative across the run's
	// recoveries: frames rebuilt from parity vs frames a classic full
	// node-loss would have rebuilt but which survived the fault (the whole
	// set for a cpu-loss with its intact log, everything outside the
	// damaged range for a partial memory loss). Omitted from JSON when
	// zero, so default no-fault output is unchanged.
	FramesReconstructed uint64 `json:",omitempty"`
	FramesSkipped       uint64 `json:",omitempty"`

	// Recovery phase durations of the most recent recovery (kept for
	// existing reports; RecoveryHistory records every recovery of the run).
	RecoveryPhase1 sim.Time
	RecoveryPhase2 sim.Time
	RecoveryPhase3 sim.Time
	RecoveryPhase4 sim.Time // background rebuild (estimated, overlaps execution)

	// RecoveryHistory holds one record per completed recovery, in order.
	// Multi-loss runs recover more than once; the scalar fields above
	// would silently overwrite earlier phase timings.
	RecoveryHistory []RecoveryRecord

	// End-to-end.
	ExecTime sim.Time
}

// RecoveryRecord is the per-recovery accounting of one completed rollback
// recovery: when it ran, what it rolled back to, which nodes were lost,
// and the four phase durations (Figures 7 and 12 are per-recovery plots).
type RecoveryRecord struct {
	At          sim.Time `json:"at_ns"`          // simulated time the recovery completed at
	TargetEpoch uint64   `json:"target_epoch"`   // checkpoint rolled back to
	Lost        []int    `json:"lost,omitempty"` // nodes lost going into this recovery
	Phase1      sim.Time `json:"phase1_ns"`
	Phase2      sim.Time `json:"phase2_ns"`
	Phase3      sim.Time `json:"phase3_ns"`
	Phase4      sim.Time `json:"phase4_ns"`
	// Split-domain reconstruction scope (zero for classic node loss).
	FramesRebuilt int `json:"frames_rebuilt,omitempty"`
	FramesSkipped int `json:"frames_skipped,omitempty"`
}

// SchemaVersion identifies the Stats JSON envelope and the model that
// fills it. Bump it whenever the marshaled output shape changes (a field
// added, renamed, re-typed or given new units) or the simulated results of
// an unchanged request change (a declared model change), so that anything
// keyed on the version — most importantly revive-serve's
// content-addressed result cache — never serves a payload produced by a
// different shape or model of the code. Version 1 is retroactively the
// envelope before the version field existed; version 2 added the field
// itself; version 3 added the strategy field (and the cone/scope recovery
// accounting), so results produced under different recovery-strategy
// backends can never alias in the cache; version 4 folds a cache hit's
// completion into the processor's next issue, which reorders
// same-timestamp events and so changes every simulated result.
const SchemaVersion = 4

// New returns a fresh Stats stamped with the current SchemaVersion.
func New() *Stats { return &Stats{Schema: SchemaVersion} }

// Net records one inter-node network message of the given class and total
// size in bytes (header plus payload).
func (s *Stats) Net(c Class, bytes int) {
	s.NetBytes[c] += uint64(bytes)
	s.NetMsgs[c]++
}

// Mem records one line-sized DRAM access of the given class.
func (s *Stats) Mem(c Class) {
	s.MemAccesses[c]++
}

// L2MissRate returns the paper's Table 4 metric: global L2 misses as a
// fraction of all memory references.
func (s *Stats) L2MissRate() float64 {
	if s.MemRefs == 0 {
		return 0
	}
	return float64(s.L2Misses) / float64(s.MemRefs)
}

// L2MissesPer1000Instr returns the commercial-workload comparison metric of
// section 5 (0.06 for Water-Sp up to 9.3 for Radix in the paper).
func (s *Stats) L2MissesPer1000Instr() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return 1000 * float64(s.L2Misses) / float64(s.Instructions)
}

// TotalNetBytes sums network bytes over all classes.
func (s *Stats) TotalNetBytes() uint64 {
	var t uint64
	for _, b := range s.NetBytes {
		t += b
	}
	return t
}

// Sample snapshots the per-epoch time-series counters into a
// trace.Sample (the Figure 11 frame): cumulative progress, cache and
// traffic counters at the given committed epoch. NodeLogBytes is left
// for the caller — log occupancy lives in the per-node controllers,
// which stats cannot see. The slices are freshly allocated, so the
// sample can outlive the event loop that produced it.
func (s *Stats) Sample(epoch uint64, timeNS int64) trace.Sample {
	return trace.Sample{
		Epoch: epoch, TimeNS: timeNS,
		Instructions: s.Instructions, MemRefs: s.MemRefs,
		L1Hits: s.L1Hits, L1Misses: s.L1Misses,
		L2Hits: s.L2Hits, L2Misses: s.L2Misses,
		Checkpoints: s.Checkpoints,
		NetBytes:    append([]uint64(nil), s.NetBytes[:]...),
		MemAccesses: append([]uint64(nil), s.MemAccesses[:]...),
	}
}

// TotalMemAccesses sums memory accesses over all classes.
func (s *Stats) TotalMemAccesses() uint64 {
	var t uint64
	for _, m := range s.MemAccesses {
		t += m
	}
	return t
}

// Campaign aggregates the counters of one chaos fault-campaign run (the
// internal/chaos engine fills it; revive-chaos prints it).
type Campaign struct {
	Campaigns int // schedules executed

	NodeLosses       int // node-loss faults injected
	CPULosses        int // cpu-loss faults injected (processor dies, memory survives)
	MemPartialLosses int // partial memory-loss faults injected (frame range lost)
	Transients       int // transient faults injected
	DuringRecov      int // second faults injected during a running recovery
	NoFault          int // campaigns whose trigger never fired before completion

	Recoveries     int // successful recoveries
	Unrecoverables int // typed refusals (damage beyond the fault model)
	Completions    int // workloads resumed and run to completion
	Checks         int // individual invariant evaluations
	Violations     int // invariant violations observed
	FailedRuns     int // campaigns with at least one violation
	ShrinkRuns     int // re-executions spent minimizing failing schedules

	// Unreliable-interconnect campaign totals.
	NetFaulted  int    // campaigns run with fabric faults active
	Escalations int    // transport-unreachability reports escalated to node-loss recovery
	Retransmits uint64 // transport retransmissions across all campaigns
	Drops       uint64 // fabric-injected message drops
	Corruptions uint64 // fabric-injected corruptions (all caught by CRC)
	Failovers   uint64 // messages re-routed around dead links
	Dedups      uint64 // duplicate frames suppressed
}

// Add accumulates o into c.
func (c *Campaign) Add(o Campaign) {
	c.Campaigns += o.Campaigns
	c.NodeLosses += o.NodeLosses
	c.CPULosses += o.CPULosses
	c.MemPartialLosses += o.MemPartialLosses
	c.Transients += o.Transients
	c.DuringRecov += o.DuringRecov
	c.NoFault += o.NoFault
	c.Recoveries += o.Recoveries
	c.Unrecoverables += o.Unrecoverables
	c.Completions += o.Completions
	c.Checks += o.Checks
	c.Violations += o.Violations
	c.FailedRuns += o.FailedRuns
	c.ShrinkRuns += o.ShrinkRuns
	c.NetFaulted += o.NetFaulted
	c.Escalations += o.Escalations
	c.Retransmits += o.Retransmits
	c.Drops += o.Drops
	c.Corruptions += o.Corruptions
	c.Failovers += o.Failovers
	c.Dedups += o.Dedups
}

func (c Campaign) String() string {
	s := fmt.Sprintf("campaigns=%d faults(node-loss=%d cpu-loss=%d mem-partial=%d transient=%d mid-recovery=%d none=%d) "+
		"recoveries=%d unrecoverable=%d completions=%d checks=%d violations=%d failed=%d shrink-runs=%d",
		c.Campaigns, c.NodeLosses, c.CPULosses, c.MemPartialLosses, c.Transients, c.DuringRecov, c.NoFault,
		c.Recoveries, c.Unrecoverables, c.Completions, c.Checks, c.Violations,
		c.FailedRuns, c.ShrinkRuns)
	if c.NetFaulted > 0 {
		s += fmt.Sprintf("\nfabric: faulted=%d escalations=%d drops=%d corruptions=%d "+
			"retransmits=%d dedups=%d failovers=%d",
			c.NetFaulted, c.Escalations, c.Drops, c.Corruptions,
			c.Retransmits, c.Dedups, c.Failovers)
	}
	return s
}

// ParseClass maps a Class.String() label back to its Class (chaos schedules
// name classes in JSON by that label).
func ParseClass(name string) (Class, bool) {
	for c := Class(0); c < NumClasses; c++ {
		if c.String() == name {
			return c, true
		}
	}
	return 0, false
}
